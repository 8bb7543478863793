// Command bench measures the fully-enabled healthcloud platform end to
// end and layer by layer. See README.md beside this file.
//
//	bash bench/run.sh                      every workload, both passes, a table
//	bash bench/run.sh -runs 5 -out a.json  the same five times over: medians and quartiles
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -smoke               two-second windows, correctness gate only
//	bash bench/run.sh --workload read-mix --seed 7 --seconds 15 --trace 0
//
// The last form is the driver's: it prints one JSON object as the last
// line of standard output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"healthcloud/internal/rbac"
)

const (
	defaultSeconds = 15
	tracedSeconds  = 10
	warmupSeconds  = 2
	crossSeconds   = 3 // the cross-check after the window, plus half a second of its own warm-up
	setups         = 3 // set-ups per run; the median is reported
	reopens        = 5 // reopens per run at most; the median is reported
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	name := flag.String("workload", "", "run one workload and print the driver's JSON line (default: all, as a table)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = the traced pass: bench-side spans, the layer walk, per-layer metrics")
	smoke := flag.Bool("smoke", false, "two-second windows, one set-up, bounds off, correctness gate on")
	runs := flag.Int("runs", 1, "repeat the whole table this many times with consecutive seeds")
	out := flag.String("out", "", "write every run's metrics here as JSON (input to -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.Parse()

	root := findRoot()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare wants two result files")
		}
		return compareFiles(root, flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	tmp := filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	outDir := filepath.Join(root, "bench", "out")
	for _, dir := range []string{tmp, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	// The temporary DataDirs go on every exit path, a signal included.
	defer os.RemoveAll(tmp)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	// The identity provider stands outside the platform; its RSA key
	// generation is neither set-up nor load, so it happens once, untimed.
	idp, err := rbac.NewIdentityProvider("bench-sso")
	if err != nil {
		return err
	}
	opts := runOpts{seed: *seed, window: time.Duration(*seconds) * time.Second,
		warmup: warmupSeconds * time.Second, cross: crossSeconds * time.Second, crossWarmup: time.Second / 2,
		setups: setups, reopens: reopens, trace: *trace == 1, tmp: tmp, out: outDir, idp: idp}
	if *smoke {
		opts.window, opts.warmup, opts.cross = 2*time.Second, time.Second/2, 2*time.Second
		opts.setups, opts.reopens = 1, 1
	}

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := runWorkload(w, opts)
		if err != nil {
			return err
		}
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "bench: invalid run:", p)
		}
		fmt.Println(res.line())
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("%s: correctness gate failed (%d of %d operations failed)", w.name, res.Failed, res.Attempted)
		}
		return nil
	}

	rec := runRecord(root, tmp, *seed)
	fmt.Printf("run record: seed %d, commit %s, nproc %d, GOMAXPROCS %d, %s, DataDir filesystem %s\n",
		rec.Seed, rec.Commit, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, rec.Filesystem)
	file := resultFile{Record: rec}
	var invalid []string
	for run := 0; run < *runs; run++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				o := opts
				o.seed, o.trace = *seed+int64(run), traced
				if traced && !*smoke {
					o.window = tracedSeconds * time.Second
				}
				res, err := runWorkload(w, o)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				file.Runs = append(file.Runs, res)
				printResult(res)
				if !res.Correct || res.Failed > 0 {
					invalid = append(invalid, fmt.Sprintf("%s seed %d", w.name, o.seed))
				}
			}
		}
	}
	if *runs > 1 {
		printAcrossRuns(file.Runs)
	}
	if *out != "" {
		if err := writeJSONFile(*out, file); err != nil {
			return err
		}
	}
	if len(invalid) > 0 {
		return fmt.Errorf("correctness gate failed: %s", strings.Join(invalid, "; "))
	}
	return nil
}

// findRoot is the checkout root: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func findRoot() string {
	cwd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := cwd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if dir == filepath.Dir(dir) {
			return cwd
		}
	}
}

// record is what a result must carry to be compared with another.
type record struct {
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Filesystem string `json:"datadir_filesystem"`
}

type resultFile struct {
	Record record    `json:"record"`
	Runs   []*result `json:"runs"`
}

func runRecord(root, tmp string, seed int64) record {
	rec := record{Seed: seed, Commit: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Filesystem: "unknown"}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		rec.Commit = strings.TrimSpace(string(out))
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(tmp, &fs); err == nil {
		rec.Filesystem = fmt.Sprintf("type 0x%x", fs.Type)
	}
	return rec
}

// printResult prints every metric of one run by name, with its unit and
// the sample count behind it. A tail percentile resting on too few
// samples for the reporting rule is marked.
func printResult(r *result) {
	pass := "untraced"
	defs := endToEnd
	if r.Trace {
		pass, defs = "traced", perLayer
	}
	verdict := "correct"
	if !r.Correct || r.Failed > 0 {
		verdict = "INVALID"
	}
	fmt.Printf("\n%s  seed %d  %s pass  %s  attempted %d  failed %d  inputs %s\n",
		r.Workload, r.Seed, pass, verdict, r.Attempted, r.Failed, r.InputHash[:12])
	for _, p := range r.Problems {
		fmt.Println("  problem:", p)
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		note := ""
		if m.N > 0 {
			note = fmt.Sprintf("n=%d", m.N)
			if strings.Contains(d.name, "_p95_") && tailQuantile(m.N) < 0.95 {
				note += " (under 200 samples: fewer than ten lie beyond this p95)"
			}
		}
		fmt.Printf("  %-28s %14.4f %-6s %s\n", d.name, m.Value, m.Unit, note)
	}
}

// printAcrossRuns prints each metric's median and quartiles over runs.
func printAcrossRuns(runs []*result) {
	fmt.Printf("\nacross runs: median [Q1 .. Q3] spread=(Q3-Q1)/median\n")
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				vals := valuesOf(runs, w.name, d.name)
				if len(vals) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(vals)
				fmt.Printf("  %-16s %-28s %12.4f [%12.4f .. %12.4f] %-6s spread %5.1f%% runs=%d\n",
					w.name, d.name, q2, q1, q3, d.unit, 100*spread(vals), len(vals))
			}
		}
	}
}

func valuesOf(runs []*result, workload, metric string) []float64 {
	var vals []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	err := readJSONFile(path, &f)
	return f, err
}
