package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Limits for ReadGoogleUsage. Real Google cluster extracts are pre-filtered
// to the experiment's machine count and horizon, so generous fixed caps
// protect the parser from hostile or corrupt inputs (it is fuzzed) without
// constraining legitimate data: 1e4 VMs × 1e5 steps is three orders of
// magnitude past the paper's largest setup.
const (
	MaxGoogleVMs   = 10_000
	MaxGoogleSteps = 100_000
)

// ReadGoogleUsage parses a simplified Google-cluster-usage extract: one
// sample per line as
//
//	step,vm,cpu
//
// where step and vm are non-negative integers and cpu is the mean CPU usage
// fraction in [0,1] (the normalised "mean CPU usage rate" column of the
// cluster-usage table). Blank lines and lines starting with '#' are
// skipped. Samples may arrive in any order; a repeated (step, vm) pair
// keeps the last value; missing samples read as idle, matching how the
// cluster data reports no row for an unscheduled task.
//
// The result holds one Trace per VM index, each padded to the maximum step
// seen. Inputs addressing more than MaxGoogleVMs VMs or MaxGoogleSteps
// steps are rejected rather than trusted with unbounded allocation.
func ReadGoogleUsage(r io.Reader) ([]Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	type sample struct {
		step, vm int
		cpu      float64
	}
	var samples []sample
	maxVM, maxStep := -1, -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("workload: line %d: want step,vm,cpu, got %d fields", line, len(fields))
		}
		step, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: step: %w", line, err)
		}
		vm, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: vm: %w", line, err)
		}
		cpu, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: cpu: %w", line, err)
		}
		if step < 0 || step >= MaxGoogleSteps {
			return nil, fmt.Errorf("workload: line %d: step %d out of [0,%d)", line, step, MaxGoogleSteps)
		}
		if vm < 0 || vm >= MaxGoogleVMs {
			return nil, fmt.Errorf("workload: line %d: vm %d out of [0,%d)", line, vm, MaxGoogleVMs)
		}
		// NaN fails both ordered comparisons, so reject it explicitly.
		if math.IsNaN(cpu) || cpu < 0 || cpu > 1 {
			return nil, fmt.Errorf("workload: line %d: cpu %g out of [0,1]", line, cpu)
		}
		samples = append(samples, sample{step: step, vm: vm, cpu: cpu})
		if vm > maxVM {
			maxVM = vm
		}
		if step > maxStep {
			maxStep = step
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading usage: %w", err)
	}
	if maxVM < 0 {
		return nil, fmt.Errorf("workload: usage input holds no samples")
	}
	traces := newTraces(maxVM+1, maxStep+1)
	for _, s := range samples {
		traces[s.vm][s.step] = s.cpu
	}
	return traces, nil
}
