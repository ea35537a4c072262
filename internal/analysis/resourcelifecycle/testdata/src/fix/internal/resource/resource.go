// Package resource exercises the resourcelifecycle analyzer: leaks on
// early-return paths, double closes, dropped Close errors (with the `_ =`
// fix), obligations flowing through summarized helpers, and cross-package
// tracking of an annotated resource type via facts.
package resource

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"

	"fix/internal/resdep"
)

// cleanChecked closes on every path; the error check prunes the nil path.
func cleanChecked(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	return f.Close()
}

// cleanDefer discharges the obligation with a deferred closure.
func cleanDefer(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	_, err = io.ReadAll(f)
	return err
}

// leakOnEarlyReturn leaks f when io.Copy fails: the second err check is
// about the copy, not the constructor, so it must not prune the tracking.
func leakOnEarlyReturn(path string) (int64, error) {
	f, err := os.Open(path) // want `\*os\.File returned by os\.Open is not closed on every path`
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, f)
	if err != nil {
		return 0, err
	}
	return n, f.Close()
}

func doubleClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_ = f.Close()
	return f.Close() // want `f may already be closed here \(double close\)`
}

// discard is summarized as closing its parameter.
func discard(f *os.File) {
	_ = f.Close()
}

func closeThroughHelper(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	discard(f)
	return nil
}

// readAll is summarized as borrowing its parameter: the obligation stays
// with the caller.
func readAll(f *os.File) ([]byte, error) {
	return io.ReadAll(f)
}

func leakThroughBorrow(path string) ([]byte, error) {
	f, err := os.Open(path) // want `\*os\.File returned by os\.Open is not closed on every path`
	if err != nil {
		return nil, err
	}
	return readAll(f)
}

// openLog hands the obligation to its caller: returning the resource is
// an ownership transfer, not a leak.
func openLog(dir string) (*os.File, error) {
	f, err := os.Create(dir + "/log")
	if err != nil {
		return nil, err
	}
	return f, nil
}

// wrapperLeak is born through the in-package name-gated constructor.
func wrapperLeak(dir string) error {
	f, err := openLog(dir) // want `\*os\.File returned by resource\.openLog is not closed on every path`
	if err != nil {
		return err
	}
	_, err = f.WriteString("x")
	return err
}

func compressLeak(dst io.Writer, data []byte) error {
	zw := gzip.NewWriter(dst) // want `\*gzip\.Writer returned by gzip\.NewWriter is not closed on every path`
	if _, err := zw.Write(data); err != nil {
		return err
	}
	return zw.Close()
}

func compressClean(dst io.Writer, data []byte) error {
	zw := gzip.NewWriter(dst)
	if _, err := zw.Write(data); err != nil {
		_ = zw.Close()
		return err
	}
	return zw.Close()
}

func droppedClose(f *os.File) {
	f.Close() // want "call to \\(\\*os\\.File\\)\\.Close drops its error; handle it, return it, or discard explicitly with `_ =`$"
}

func deferredDrop(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // want "deferred call to \\(\\*os\\.File\\)\\.Close drops its error; handle it, return it, or discard explicitly with `_ =`$"
	return io.ReadAll(f)
}

func allowedDrop(f *os.File) {
	f.Close() //lint:allow resourcelifecycle:dropped-error best-effort cleanup on a read-only file
}

func allowedLeak(path string) (io.Reader, error) {
	f, err := os.Open(path) //lint:allow resourcelifecycle:leak the returned reader keeps the file alive for the caller
	if err != nil {
		return nil, err
	}
	return bufio.NewReader(f), nil
}

// depLeak tracks an annotated cross-package resource: resdep.Touch only
// borrows (per its exported summary), so the handle still leaks.
func depLeak(path string) error {
	h, err := resdep.OpenHandle(path) // want `\*resdep\.Handle returned by resdep\.OpenHandle is not closed on every path`
	if err != nil {
		return err
	}
	resdep.Touch(h)
	return nil
}

// depClean discharges the obligation through resdep.Finish (summary:
// closes).
func depClean(path string) error {
	h, err := resdep.OpenHandle(path)
	if err != nil {
		return err
	}
	resdep.Touch(h)
	return resdep.Finish(h)
}
