// Package cliprof gives the command-line tools the standard runtime/pprof
// CPU and allocation profiles. A tool registers -cpuprofile and
// -memprofile with Flags before flag.Parse, calls Start once the flags are
// parsed, and defers Stop so that every exit path flushes the profiles.
package cliprof

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler owns one run's profile files. An empty path disables that
// profile.
type Profiler struct {
	cpuPath, memPath string
	cpu, mem         *os.File
}

// Flags registers -cpuprofile and -memprofile on the default flag set.
func Flags() *Profiler {
	p := &Profiler{}
	flag.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&p.memPath, "memprofile", "", "write an allocation profile to this file when the run ends")
	return p
}

// Start creates both profile files, so that a bad path fails before the
// run rather than after it, and starts the CPU profile.
func (p *Profiler) Start() error {
	if p.cpuPath != "" {
		f, err := os.Create(p.cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpu = f
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			return errors.Join(fmt.Errorf("memprofile: %w", err), p.close())
		}
		p.mem = f
	}
	if p.cpu != nil {
		if err := pprof.StartCPUProfile(p.cpu); err != nil {
			return errors.Join(fmt.Errorf("cpuprofile: %w", err), p.close())
		}
	}
	return nil
}

// Stop ends the CPU profile, writes the allocation profile and closes both
// files, returning every failure joined. It is a no-op when Start opened
// nothing.
func (p *Profiler) Stop() error {
	if p.cpu != nil {
		pprof.StopCPUProfile()
	}
	var werr error
	if p.mem != nil {
		runtime.GC() // settle the statistics the profile reports, as go test does
		if err := pprof.Lookup("allocs").WriteTo(p.mem, 0); err != nil {
			werr = fmt.Errorf("memprofile: %w", err)
		}
	}
	return errors.Join(werr, p.close())
}

// close closes whichever profile files are open.
func (p *Profiler) close() error {
	var errs [2]error
	if p.cpu != nil {
		errs[0] = p.cpu.Close()
		p.cpu = nil
	}
	if p.mem != nil {
		errs[1] = p.mem.Close()
		p.mem = nil
	}
	return errors.Join(errs[:]...)
}
