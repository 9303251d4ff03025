// Command perfbench is BeCAUSe's end-to-end benchmark. It drives the whole
// pipeline through its entry points — scenario documents and the experiment
// harness, the MRT archive path, the because API, and becaused's HTTP
// handler on a loopback server — with closed-loop clients, checks every
// op's output, and prints the end-to-end metrics, or with -trace 1 the
// per-layer ones, as one JSON object on the last line of standard output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload campaign|infer-paper|serve-mixed --seed N --seconds S --trace 0|1
//
// Workload records and the layer map are in workloads.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is every workload's default seed; the campaign archive
// digests are pinned at it.
const defaultSeed = 1

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// workload is one benchmark workload. setup generates the inputs, starts
// what the workload needs and warms it up; traced selects the instrumented
// configuration. op runs one closed-loop op for a client. finish ends the
// phase begun by setup, returning phase-level layer metrics when traced.
type workload interface {
	setup(traced bool) error
	op(client, i int, traced bool) sample
	finish(traced bool) (map[string]float64, error)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "campaign, infer-paper or serve-mixed")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cat, err := loadCatalog()
	if err != nil {
		return err
	}
	clients := cat.clients(*name)
	var w workload
	switch *name {
	case "campaign":
		w = &campaignWorkload{seed: *seed}
	case "infer-paper", "serve-mixed":
		w = &serveWorkload{name: *name, seed: *seed, clients: clients}
	default:
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	measure := time.Duration(*seconds * float64(time.Second))

	fmt.Fprintf(stdout, "workload %s  seed %d  clients %d  closed loop\n", *name, *seed, clients)
	var rep report
	if *trace == 0 {
		rep, err = endToEnd(w, clients, measure)
	} else {
		rep, err = traced(w, cat, *name, clients, measure)
	}
	if err != nil {
		return err
	}
	return rep.print(stdout)
}

// endToEnd sets up setupRepeats times, then measures with tracing off.
func endToEnd(w workload, clients int, measure time.Duration) (report, error) {
	setups := make([]float64, setupRepeats)
	for i := range setups {
		if i > 0 {
			if _, err := w.finish(false); err != nil {
				return report{}, err
			}
		}
		start := time.Now()
		if err := w.setup(false); err != nil {
			return report{}, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	samples, wall := closedLoop(w, clients, measure, false)
	if _, err := w.finish(false); err != nil {
		return report{}, err
	}

	rep := newReport(samples)
	lats := latencies(samples)
	n := len(samples)
	// The tail is the 99th percentile where at least ten ops lie beyond
	// it; with fewer ops, the highest percentile that still has ten beyond,
	// and never below the median.
	q := math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
	tail := math.Max(quantile(lats, q), median(lats))
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", setupRepeats))
	rep.add("op_p50_s", "s", median(lats), fmt.Sprintf("n=%d", n))
	rep.add("op_p99_s", "s", tail, fmt.Sprintf("p%.0f of n=%d, %d beyond", 100*q, n, countAbove(lats, tail)))
	rep.add("throughput_ops_per_s", "1/s", float64(n)/wall.Seconds(), fmt.Sprintf("%d ops in %.2fs", n, wall.Seconds()))
	rep.add("peak_rss_mb", "MB", peakRSSMB(), "process maximum resident set")
	rep.add("ok_share", "share", 1-float64(rep.failed)/float64(n), fmt.Sprintf("%d of %d ops failed", rep.failed, n))
	return rep, nil
}

// traced measures half the time untraced and half traced, each after its
// own setup, and reports the per-layer metrics from the traced half with
// the traced-over-untraced op time as the tracing overhead.
func traced(w workload, cat *catalog, name string, clients int, measure time.Duration) (report, error) {
	var phases [2][]sample
	var extras map[string]float64
	for i, on := range []bool{false, true} {
		if err := w.setup(on); err != nil {
			return report{}, err
		}
		phases[i], _ = closedLoop(w, clients, measure/2, on)
		ex, err := w.finish(on)
		if err != nil {
			return report{}, err
		}
		if on {
			extras = ex
		}
	}
	rep := newReport(append(phases[0], phases[1]...))
	overhead := median(latencies(phases[1]))/median(latencies(phases[0])) - 1
	values, problems := layerReport(cat, name, phases[1], extras, overhead)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "shape check:", p)
	}
	rep.correct = rep.correct && len(problems) == 0
	for _, m := range cat.layerMetrics(name) {
		rep.add(m.name, m.unit, values[m.name], fmt.Sprintf("%d traced ops", len(phases[1])))
	}
	return rep, nil
}

// closedLoop runs every client until the deadline; each client issues its
// next op only once the previous one has returned.
func closedLoop(w workload, clients int, measure time.Duration, traced bool) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(measure)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				per[c] = append(per[c], w.op(c, i, traced))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, wall
}

// report is one run's result.
type report struct {
	samples []sample
	correct bool
	failed  int
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(samples []sample) report {
	r := report{samples: samples, correct: true, metrics: map[string]metric{}, notes: map[string]string{}}
	for i, s := range samples {
		if s.err != nil {
			r.failed++
			r.correct = false
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, s.err)
		}
	}
	if len(samples) == 0 {
		r.correct = false
	}
	return r
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	return out
}

func (r *report) add(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// print writes the readable table, then the result object as the last line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "%d ops attempted, %d failed\n", len(r.samples), r.failed)
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-24s %14.6g %-6s (%s)\n", name, m.Value, m.Unit, r.notes[name])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, len(r.samples), r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median is the middle value (the mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func countAbove(xs []float64, t float64) int {
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
