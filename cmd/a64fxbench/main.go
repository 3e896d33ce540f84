// Command a64fxbench reproduces the tables and figures of Jackson et
// al., "Investigating Applications on the A64FX" (IEEE CLUSTER 2020) on
// the simulated systems.
//
// Usage:
//
//	a64fxbench [flags] <command> [args] [flags]
//
// `a64fxbench -h` lists every command and flag. Flags may appear
// before or after the command and its arguments (`a64fxbench trace
// fig3 -format=chrome` works).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"a64fxbench"
)

// command is one CLI subcommand. Dispatch, argument checking and the
// usage listing are all driven off the commands table below — there is
// no hand-rolled switch.
type command interface {
	// Name is the dispatch token, e.g. "run".
	Name() string
	// Synopsis is the usage line's argument form, e.g. "run <id> [...]".
	Synopsis() string
	// Describe is the one-line help text.
	Describe() string
	// Run executes the command with the global flag config and the
	// positional arguments after the command name.
	Run(ctx context.Context, cfg sweepConfig, args []string) error
}

// cmdFunc adapts a plain function to the command interface.
type cmdFunc struct {
	name     string
	synopsis string
	describe string
	// minArgs is the required positional-argument count; fewer yields a
	// usage error without invoking run.
	minArgs int
	run     func(ctx context.Context, cfg sweepConfig, args []string) error
}

func (c cmdFunc) Name() string     { return c.name }
func (c cmdFunc) Synopsis() string { return c.synopsis }
func (c cmdFunc) Describe() string { return c.describe }
func (c cmdFunc) Run(ctx context.Context, cfg sweepConfig, args []string) error {
	if len(args) < c.minArgs {
		return fmt.Errorf("usage: a64fxbench %s", c.synopsis)
	}
	return c.run(ctx, cfg, args)
}

// commands is the dispatch table, in usage order.
var commands = []command{
	cmdFunc{
		name: "list", synopsis: "list",
		describe: "list all experiments and extensions",
		run: func(context.Context, sweepConfig, []string) error {
			return list()
		},
	},
	cmdFunc{
		name: "sysinfo", synopsis: "sysinfo",
		describe: "print the machine models (Table I)",
		run: func(context.Context, sweepConfig, []string) error {
			return sysinfo()
		},
	},
	cmdFunc{
		name: "run", synopsis: "run <experiment-id> [...]",
		describe: "run experiments (e.g. table3 fig4)",
		minArgs:  1,
		run: func(ctx context.Context, cfg sweepConfig, args []string) error {
			return runSweep(ctx, os.Stdout, os.Stderr, args, cfg)
		},
	},
	cmdFunc{
		name: "all", synopsis: "all",
		describe: "run everything in paper order",
		run: func(ctx context.Context, cfg sweepConfig, _ []string) error {
			var ids []string
			for _, e := range a64fxbench.Experiments() {
				ids = append(ids, e.ID)
			}
			return runSweep(ctx, os.Stdout, os.Stderr, ids, cfg)
		},
	},
	cmdFunc{
		name: "ext", synopsis: "ext [id ...]",
		describe: "ablation experiments beyond the paper",
		run: func(ctx context.Context, cfg sweepConfig, args []string) error {
			ids := args
			if len(ids) == 0 {
				for _, e := range a64fxbench.Extensions() {
					ids = append(ids, e.ID)
				}
			}
			return runSweep(ctx, os.Stdout, os.Stderr, ids, cfg)
		},
	},
	cmdFunc{
		name: "trace", synopsis: "trace <experiment-id>",
		describe: "run one experiment traced and export its event stream (-format, -o)",
		minArgs:  1,
		run: func(ctx context.Context, cfg sweepConfig, args []string) error {
			return traceExperiment(ctx, args[0], cfg)
		},
	},
	cmdFunc{
		name: "links", synopsis: "links <experiment-id>",
		describe: "run one experiment congested and print its link heatmaps (-format, -o)",
		minArgs:  1,
		run: func(ctx context.Context, cfg sweepConfig, args []string) error {
			return linksCmd(ctx, args[0], cfg)
		},
	},
	cmdFunc{
		name: "counters", synopsis: "counters [id ...]",
		describe: "run experiments with the virtual PMU and export counters (-format, -o, -period)",
		run: func(ctx context.Context, cfg sweepConfig, args []string) error {
			return countersCmd(ctx, args, cfg)
		},
	},
	cmdFunc{
		name: "diff", synopsis: "diff <old.json> <new.json>",
		describe: "compare two counter snapshots; non-zero exit on regression (-tol)",
		minArgs:  2,
		run: func(_ context.Context, cfg sweepConfig, args []string) error {
			return diffCmd(os.Stdout, args[0], args[1], cfg)
		},
	},
	cmdFunc{
		name: "serve", synopsis: "serve",
		describe: "run the sweep-as-a-service HTTP daemon (-addr, -j, -queue)",
		run: func(ctx context.Context, cfg sweepConfig, _ []string) error {
			return serveCmd(ctx, cfg)
		},
	},
	cmdFunc{
		name: "micro", synopsis: "micro [system]",
		describe: "model-validation microbenchmarks",
		run: func(_ context.Context, _ sweepConfig, args []string) error {
			name := ""
			if len(args) > 0 {
				name = args[0]
			}
			return microCmd(name)
		},
	},
	cmdFunc{
		name: "profile", synopsis: "profile <benchmark> <system>",
		describe: "per-kernel-class time breakdown",
		minArgs:  2,
		run: func(_ context.Context, _ sweepConfig, args []string) error {
			return profileCmd(os.Stdout, args[0], args[1])
		},
	},
	cmdFunc{
		name: "machines", synopsis: "machines list|show|validate|calibrate ...",
		describe: "machine spec registry: list, show, validate spec files, calibrate",
		minArgs:  1,
		run: func(_ context.Context, _ sweepConfig, args []string) error {
			return machinesCmd(args)
		},
	},
	cmdFunc{
		name: "validate", synopsis: "validate",
		describe: "self-check against the paper's values",
		run: func(_ context.Context, _ sweepConfig, args []string) error {
			if len(args) > 0 {
				return fmt.Errorf("validate takes no arguments; check spec files with `a64fxbench machines validate <spec.json|dir> ...`")
			}
			return validateCmd()
		},
	},
}

// findCommand resolves a dispatch token against the table.
func findCommand(name string) command {
	for _, c := range commands {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

func main() {
	quick := flag.Bool("quick", false, "reduce simulated iteration counts for fast runs")
	compare := flag.Bool("compare", false, "show paper references and deltas beside each value")
	format := flag.String("format", "text", "output format: text, chart, json or csv (trace: text, chrome or json)")
	jobs := flag.Int("j", 0, "max concurrent experiments (0 = GOMAXPROCS)")
	failFast := flag.Bool("failfast", false, "cancel remaining experiments after the first failure")
	profile := flag.Bool("profile", false, "print per-job observability summaries after each artifact")
	congestion := flag.Bool("congestion", false, "price multi-node communication through the routed contention model")
	outFile := flag.String("o", "", "write trace/links/counters output to FILE instead of stdout")
	period := flag.Duration("period", 0, "counters: virtual-time sampling period (0 = default 100µs)")
	tol := flag.Float64("tol", 0.01, "diff: relative tolerance for time and rate metrics")
	addr := flag.String("addr", "127.0.0.1:7764", "serve: listen address")
	queue := flag.Int("queue", 0, "serve: queued executions before 429 (0 = default 64)")
	debugAddr := flag.String("debug-addr", "", "serve: also listen on ADDR for /debug/pprof/ (off when empty)")
	logLevel := flag.String("log-level", "info", "serve: request-log threshold: debug, info, warn, error or off")
	logFormat := flag.String("log-format", "json", "serve: request-log encoding: json or text")
	specs := flag.String("specs", "", "load machine specs from DIR (default $A64FXBENCH_SPECS)")
	machine := flag.String("machine", "", "target machine for machine-parameterized experiments (default A64FX)")
	model := flag.String("model", "", "compute-phase pricing model: roofline (default) or ecm (memory-hierarchy)")
	flag.Usage = usage
	// Interleaved parsing: each Parse stops at the first non-flag token,
	// so collect positionals one at a time and re-parse the remainder.
	// This lets flags appear after the command and its arguments.
	var pos []string
	rest := os.Args[1:]
	for {
		if err := flag.CommandLine.Parse(rest); err != nil {
			os.Exit(2)
		}
		if flag.NArg() == 0 {
			break
		}
		pos = append(pos, flag.Arg(0))
		rest = flag.Args()[1:]
	}
	if len(pos) == 0 {
		usage()
		os.Exit(2)
	}
	cmd := findCommand(pos[0])
	if cmd == nil {
		fmt.Fprintf(os.Stderr, "a64fxbench: unknown command %q\n\n", pos[0])
		usage()
		os.Exit(2)
	}
	mdl, err := a64fxbench.ParseModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "a64fxbench:", err)
		os.Exit(2)
	}
	specDir := *specs
	if specDir == "" {
		specDir = os.Getenv("A64FXBENCH_SPECS")
	}
	if err := loadSpecs(specDir); err != nil {
		fmt.Fprintln(os.Stderr, "a64fxbench:", err)
		os.Exit(2)
	}
	cfg := sweepConfig{
		quick: *quick, compare: *compare, format: *format,
		jobs: *jobs, failFast: *failFast,
		profile: *profile, congestion: *congestion, out: *outFile,
		period: *period, tol: *tol, addr: *addr, queue: *queue,
		debugAddr: *debugAddr, logLevel: *logLevel, logFormat: *logFormat,
		machine: *machine, model: string(mdl),
	}
	// Ctrl-C cancels experiments that have not started; running ones
	// finish (the sweep engine documents this), then the partial summary
	// prints.
	ctx, stop := signal.NotifyContext(rootContext(), os.Interrupt)
	defer stop()
	if err := cmd.Run(ctx, cfg, pos[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "a64fxbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `a64fxbench — reproduce "Investigating Applications on the A64FX" (CLUSTER 2020)

usage:
`)
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  a64fxbench [flags] %-28s %s\n", c.Synopsis(), c.Describe())
	}
	fmt.Fprintf(os.Stderr, `
flags (accepted before or after the command):
  -quick     reduce simulated iteration counts (fast smoke runs)
  -compare   show paper-vs-measured deltas beside each value
  -format    run/all/ext: text (default), chart, json or csv
             trace: text (default), chrome (Perfetto) or json (analysis report)
             counters: text (default), json (canonical snapshot) or csv (series)
  -o FILE    trace/links/counters: write output to FILE instead of stdout
  -period D  counters: virtual-time sampling period (0 = default 100µs)
  -tol F     diff: relative tolerance for time and rate metrics (default 0.01)
  -profile   run/all/ext: print per-job observability summaries
  -congestion  price multi-node communication through the routed contention model
  -j N       run up to N experiments concurrently (0 = GOMAXPROCS)
  -failfast  cancel remaining experiments after the first failure
  -addr A    serve: listen address (default 127.0.0.1:7764)
  -queue N   serve: queued executions before 429 (0 = default 64)
  -debug-addr A  serve: also listen on A for /debug/pprof/ (off when empty)
  -log-level L   serve: request-log threshold: debug, info (default), warn,
             error, or off to disable request logging
  -log-format F  serve: request-log encoding: json (default, one object per
             line on stdout) or text
  -specs DIR load machine spec files from DIR into the registry
             (default: the A64FXBENCH_SPECS environment variable)
  -machine M run machine-parameterized experiments (ext-machine) on
             registered machine M (default A64FX)
  -model M   compute-phase pricing model: roofline (default, calibrated) or
             ecm (per-level memory-hierarchy phases; diff two counter
             snapshots to tabulate roofline-vs-ECM prediction deltas)
`)
}

// rootContext is the base context of the process (a seam for tests).
func rootContext() context.Context { return context.Background() }

func list() error {
	for _, e := range a64fxbench.Experiments() {
		fmt.Printf("%-12s %-6s %s\n", e.ID, e.Kind, e.Title)
		fmt.Printf("             %s\n", e.Description)
	}
	fmt.Println("\nextensions (run with `ext`):")
	for _, e := range a64fxbench.Extensions() {
		fmt.Printf("%-12s %-6s %s\n", e.ID, e.Kind, e.Title)
		fmt.Printf("             %s\n", e.Description)
	}
	return nil
}

func sysinfo() error {
	for _, s := range a64fxbench.Systems() {
		fmt.Printf("%s — %s\n", s.ID, s.Description)
		fmt.Printf("  processor:  %s (%s), %.1f GHz, %d×%d cores, %d-bit vectors\n",
			s.Processor, s.Microarch, s.ClockGHz, s.ProcessorsPerNode, s.CoresPerProcessor, s.VectorBits)
		fmt.Printf("  peak:       %.1f GFLOP/s per node\n", s.PeakNodeGFlops())
		fmt.Printf("  memory:     %v per node (%v per core), %v peak bandwidth\n",
			s.MemoryPerNode(), s.MemoryPerCore(), s.Node.PeakBandwidth())
		fmt.Printf("  network:    %s\n", s.NewFabric(s.MaxNodes).Name)
		fmt.Printf("  max nodes:  %d\n\n", s.MaxNodes)
	}
	return nil
}
