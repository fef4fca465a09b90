// Command benchmark is the repository's end-to-end benchmark: one run
// builds a workload from --seed, drives it for --seconds, checks every
// view against recomputation, and prints every metric by name with its
// unit, the result JSON last. See README.md beside this file.
//
//	go run -C benchmark . --workload spj_price --seed 1 --seconds 35 --trace 0
//	go run -C benchmark . -all            every workload, untraced then traced
//	go run -C benchmark . -smoke ...      data ÷ 10 (what the tests use)
//	go run -C benchmark . compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: benchmark compare PARENT.jsonl CHANGE.jsonl")
			return 2
		}
		return compare(args[1], args[2], stdout, stderr)
	}

	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the modification and read streams")
	secs := fs.Float64("seconds", 35, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	all := fs.Bool("all", false, "run every workload untraced, then traced")
	smoke := fs.Bool("smoke", false, "data ÷ 10")
	record := fs.String("record", "", "append each run's result as one JSON line to this file (input of compare)")
	var k knobs
	fs.IntVar(&k.Workers, "workers", 0, "ivm.System.Workers (non-default: marks results default_config false)")
	fs.IntVar(&k.OpWorkers, "opworkers", 0, "ivm.System.OpWorkers (non-default)")
	fs.IntVar(&k.BatchSize, "batchsize", 0, "ivm.System.BatchSize (non-default)")
	fs.IntVar(&k.SkewThreshold, "skew", 0, "ivm.System.SkewThreshold (non-default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive")
		return 2
	}

	// The measured configuration: the defaults a user gets, on at most two
	// cores (the box has two, shared; Go before 1.25 ignores CPU quotas).
	debug.SetGCPercent(100)
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	cfg := runConfig{seed: *seed, seconds: *secs, smoke: *smoke, knobs: k, outDir: "out", log: stdout}
	var plan []runConfig
	switch {
	case *all:
		for _, tr := range []bool{false, true} {
			for _, w := range workloads {
				c := cfg
				c.spec, c.trace = w, tr
				plan = append(plan, c)
			}
		}
	default:
		cfg.spec = findWorkload(*workload)
		if cfg.spec == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		cfg.trace = *trace == 1
		plan = []runConfig{cfg}
	}

	code := 0
	for _, c := range plan {
		res, err := run(c)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", c.spec.name, err)
			return 1
		}
		if *record != "" {
			if err := appendRecord(*record, c, res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed; first: %s\n", c.spec.name, res.Failed, res.Attempted, res.firstFailure)
			code = 1
		}
		printResult(stdout, c, res)
	}
	return code
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// printResult prints every metric by name with its unit, then the result
// as one JSON object on the last line.
func printResult(out io.Writer, c runConfig, res *result) {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(out, "%-12s %-40s %16.4f %s\n", c.spec.name, d.name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%-12s operations attempted %d, failed %d\n", c.spec.name, res.Attempted, res.Failed)
	line, _ := json.Marshal(res) // a map of floats and three scalars always marshals
	fmt.Fprintf(out, "%s\n", line)
}

// record is one line of a results file.
type record struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Seconds       float64                `json:"seconds"`
	Trace         bool                   `json:"trace"`
	Smoke         bool                   `json:"smoke"`
	Commit        string                 `json:"commit"`
	GoVersion     string                 `json:"go_version"`
	NumCPU        int                    `json:"nproc"`
	GOMAXPROCS    int                    `json:"gomaxprocs"`
	DefaultConfig bool                   `json:"default_config"`
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Metrics       map[string]metricValue `json:"metrics"`
	// Claim stays null: a results file records measurements; a gain is
	// claimed by an issue, with compare's verdict as evidence.
	Claim *string `json:"claim"`
}

// defaultConfig reports whether the run measured the defaults: no knob
// flag and no IDIVM_* variable (IDIVM_ENGINE swaps the storage engine).
func defaultConfig(k knobs) bool {
	if !k.isDefault() {
		return false
	}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "IDIVM_") {
			return false
		}
	}
	return true
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout, or no git
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, c runConfig, res *result) error {
	rec := record{
		Workload: c.spec.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Smoke: c.smoke,
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DefaultConfig: defaultConfig(c.knobs),
		Correct:       res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
