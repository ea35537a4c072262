package journal

// The names below keep perfbench building. perfbench is a separate
// module whose sources change only together with its recorded baselines,
// and it still wraps its RotatingWriter in NewAsyncSink. The journal is
// written on the emitting goroutine, so the wrapper returns the writer.

// Policy is accepted and ignored by NewAsyncSink.
type Policy int

// PolicyBlock is the only Policy.
const PolicyBlock Policy = 0

// AsyncConfig is accepted and ignored by NewAsyncSink.
type AsyncConfig struct{ Policy Policy }

// NewAsyncSink returns w, which is itself the sink.
func NewAsyncSink(w *RotatingWriter, _ AsyncConfig) *RotatingWriter { return w }
