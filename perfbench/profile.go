package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiler records a traced phase: a CPU profile, the allocation profile
// before and after (their difference is what the phase allocated) and the
// garbage collector's CPU time.
type profiler struct {
	dir string
	cpu *os.File
	gc0 float64
}

func startProfile(dir string) (*profiler, error) {
	p := &profiler{dir: dir}
	if err := p.writeAllocs("allocs0.pb"); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pb"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	p.gc0 = gcSeconds()
	return p, nil
}

func (p *profiler) writeAllocs(name string) error {
	f, err := os.Create(filepath.Join(p.dir, name))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stop ends the phase and returns the garbage collector's CPU seconds in it.
func (p *profiler) stop() (float64, error) {
	gc := gcSeconds() - p.gc0
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return 0, err
	}
	return gc, p.writeAllocs("allocs1.pb")
}

// fold sets <workload>.<pkg>.cpu_share and .alloc_share for the
// workload's layer packages from the recorded profiles.
func (p *profiler) fold(o *outcome, workload string) error {
	cpu, err := pprofShares(filepath.Join(p.dir, "cpu.pb"))
	if err != nil {
		return err
	}
	alloc, err := pprofShares("-sample_index=alloc_space",
		"-base", filepath.Join(p.dir, "allocs0.pb"), filepath.Join(p.dir, "allocs1.pb"))
	if err != nil {
		return err
	}
	for _, pkg := range layerPackages[workload] {
		o.metrics[workload+"."+pkg+".cpu_share"] = cpu[pkg]
		o.metrics[workload+"."+pkg+".alloc_share"] = alloc[pkg]
	}
	return nil
}

// pprofShares runs `go tool pprof -top` on a profile and sums each
// function's flat share into its layer (see layerOf).
func pprofShares(args ...string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-top",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTop(string(out))
}

// parseTop folds `pprof -top` text: after the "flat  flat%" header each
// row is "flat flat% sum% cum cum% function".
func parseTop(text string) (map[string]float64, error) {
	shares := make(map[string]float64)
	rows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		if layer := layerOf(pkgOf(strings.Join(f[5:], " "))); layer != "" {
			shares[layer] += pct / 100
		}
	}
	if !rows {
		return nil, fmt.Errorf("pprof printed no table")
	}
	return shares, nil
}

// pkgOf returns the import path of a profiled function's package.
// Assembly routines without a package qualifier belong to the runtime.
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}

// pkgLayer folds helper packages into the layer they serve: rDAG pattern
// drivers are shaping, SPEC-like generators are input traces.
var pkgLayer = map[string]string{"rdag": "shaper", "workload": "trace"}

// layerOf names the layer a package's time counts toward: "runtime" for
// the Go runtime, the package name (or its pkgLayer) for the
// repository's internal packages, and "" for everything else.
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	name, ok := strings.CutPrefix(pkg, "dagguise/internal/")
	if !ok {
		return ""
	}
	if l, ok := pkgLayer[name]; ok {
		return l
	}
	return name
}
