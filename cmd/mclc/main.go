// Command mclc is the MCL compiler front-end: it parses MCPL kernels,
// reports stepwise-refinement feedback for a chosen hardware-description
// level, translates kernels between levels and emits the generated
// OpenCL-style code plus the launch glue.
//
// Usage:
//
//	mclc -kernel matmul -target gtx480 [-feedback] [-emit] [-params n=1024,m=1024,p=1024] file.mcpl
//	mclc -tune -target gtx480 -params n=1024,m=1024,p=1024 matmul_perfect.mcpl matmul_gpu.mcpl
//	mclc -list-hardware
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/feedback"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/mcl/translate"
	"cashmere/internal/mcl/tune"
)

func main() {
	var (
		kernel = flag.String("kernel", "", "kernel name (default: the single kernel in the file)")
		target = flag.String("target", "gpu", "target hardware description")
		doFeed = flag.Bool("feedback", true, "print stepwise-refinement feedback")
		doEmit = flag.Bool("emit", false, "emit generated OpenCL-style code")
		doCost = flag.Bool("cost", false, "print the analysis report and modeled cost")
		params = flag.String("params", "", "launch parameters, e.g. n=1024,m=1024")
		listHW = flag.Bool("list-hardware", false, "list the hardware-description hierarchy and exit")

		doTune   = flag.Bool("tune", false, "auto-tune: search version level x launch geometry for -target (a device); accepts one file per kernel version")
		inBytes  = flag.Int64("inbytes", 0, "with -tune, the host->device bytes of one launch")
		outBytes = flag.Int64("outbytes", 0, "with -tune, the device->host bytes of one launch")
		cacheF   = flag.String("tune-cache", "", "with -tune, persistent tuning-cache file to consult and update")
	)
	flag.Parse()

	h := hdl.Library()
	if *listHW {
		// Print the hierarchy as an indented tree (Fig. 2 of the paper).
		var dump func(lv *hdl.Level, depth int)
		dump = func(lv *hdl.Level, depth int) {
			fmt.Printf("%s%s\n", strings.Repeat("  ", depth), lv.Name)
			var kids []string
			for name, child := range h.Levels {
				if child.Parent == lv {
					kids = append(kids, name)
				}
			}
			sort.Strings(kids)
			for _, k := range kids {
				dump(h.Levels[k], depth+1)
			}
		}
		dump(h.Root, 0)
		return
	}

	if *doTune {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: mclc -tune [flags] file.mcpl [more versions...]")
			flag.Usage()
			os.Exit(2)
		}
		p, err := parseParams(*params)
		die(err)
		runTune(h, *kernel, *target, p, *inBytes, *outBytes, *cacheF, flag.Args())
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mclc [flags] file.mcpl")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	die(err)
	prog, err := mcpl.Parse(string(src))
	die(err)
	info, err := mcpl.Check(prog)
	die(err)

	name := *kernel
	if name == "" {
		ks := prog.Kernels()
		if len(ks) != 1 {
			die(fmt.Errorf("file defines %d kernels; use -kernel", len(ks)))
		}
		name = ks[0].Name
	}
	lv, err := h.Lookup(*target)
	die(err)
	die(translate.ValidateLevel(prog, name, lv))

	p, err := parseParams(*params)
	die(err)

	var spec *device.Spec
	if s, err := device.Lookup(*target); err == nil {
		spec = s
	}

	if *doFeed {
		msgs, err := feedback.Generate(info, name, p, lv, spec)
		die(err)
		if len(msgs) == 0 {
			fmt.Printf("%s: no feedback for level %q — ready to translate down\n", name, lv.Name)
		}
		for _, m := range msgs {
			fmt.Println(m)
		}
	}

	if *doEmit {
		out, err := translate.Translate(prog, name, lv)
		die(err)
		text, err := codegen.EmitOpenCL(out, name, lv)
		die(err)
		fmt.Print(text)
	}

	if *doCost {
		k := prog.Kernel(name)
		simd := 32
		if spec != nil {
			simd = spec.SIMDWidth
		}
		rep, err := codegen.Analyze(info, name, p, simd)
		die(err)
		fmt.Printf("kernel %s (level %s) analyzed for %s:\n", name, k.Level, lv.Name)
		fmt.Printf("  flops            %.4g (divergent %.0f%%)\n", rep.Flops, rep.DivergentFrac()*100)
		fmt.Printf("  traffic          uniform %.4g, coalesced %.4g, strided %.4g, gathered %.4g bytes\n",
			rep.UniformBytes, rep.CoalescedBytes, rep.StridedBytes, rep.GatheredBytes)
		fmt.Printf("  local memory     %d bytes/work-group (used: %v)\n", rep.LocalBytes, rep.UsesLocalMemory)
		fmt.Printf("  parallelism      %.4g work-items\n", rep.ThreadParallelism)
		if spec != nil {
			cost := codegen.Cost(rep, spec, 0)
			fmt.Printf("  modeled on %s: %v (%.1f GFLOPS)\n", spec.Name, spec.KernelTime(cost), spec.GFLOPS(cost))
		}
		for _, w := range rep.Warnings {
			fmt.Printf("  warning: %s\n", w)
		}
	}
}

// parseParams parses the -params list: comma-separated name=value pairs
// with distinct, non-empty names and decimal integer values.
func parseParams(s string) (map[string]int64, error) {
	p := map[string]int64{}
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad parameter %q (want name=value)", kv)
		}
		if _, dup := p[name]; dup {
			return nil, fmt.Errorf("parameter %q given twice", name)
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %v", name, err)
		}
		p[name] = v
	}
	return p, nil
}

// runTune is the -tune mode: build a kernel set from one source file per
// version, search version level x launch geometry for the target device, and
// print the candidate table and the winner. With -tune-cache a cached
// winner is printed instead of the search's, and a new one is stored.
func runTune(h *hdl.Hierarchy, kernel, target string, params map[string]int64, in, out int64, cacheF string, files []string) {
	var sources []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		die(err)
		sources = append(sources, string(src))
	}
	name := kernel
	if name == "" {
		prog, err := mcpl.Parse(sources[0])
		die(err)
		ks := prog.Kernels()
		if len(ks) != 1 {
			die(fmt.Errorf("%s defines %d kernels; use -kernel", files[0], len(ks)))
		}
		name = ks[0].Name
	}
	ks, err := codegen.NewKernelSet(name, sources...)
	die(err)
	spec, err := device.Lookup(target)
	if err != nil {
		die(fmt.Errorf("-tune needs a device leaf as -target: %w", err))
	}

	res, err := tune.Tune(tune.Request{
		Set: ks, Device: spec, Params: params,
		InBytes: in, OutBytes: out,
	}, h)
	die(err)
	e := res.Entry

	if cacheF != "" {
		cache, err := tune.Load(cacheF)
		die(err)
		key := tune.Key(ks, spec)
		if cached, ok := cache.Lookup(key); ok {
			e = *cached
		} else {
			cache.Put(key, &e)
		}
		die(cache.Save(cacheF))
	}

	fmt.Printf("tuning %s on %s: %d configurations, %d pruned\n",
		name, spec.Name, e.Evaluated, e.Pruned)
	fmt.Printf("%-10s %-12s %14s  %s\n", "level", "local", "model_ns", "")
	for _, c := range res.Candidates {
		local := "default"
		if len(c.Local) > 0 {
			local = fmt.Sprint(c.Local)
		}
		note := ""
		if c.Pruned {
			note = "pruned"
		}
		fmt.Printf("%-10s %-12s %14d  %s\n", c.Level, local, c.ModelNs, note)
	}
	local := "default geometry"
	if len(e.Local) > 0 {
		local = fmt.Sprintf("local %v", e.Local)
	}
	speedup := 1.0
	if e.ServiceNs > 0 {
		speedup = float64(e.BaselineNs) / float64(e.ServiceNs)
	}
	fmt.Printf("winner: level %s, %s — %d ns vs %d ns hand-picked (%.2fx)\n",
		e.Level, local, e.ServiceNs, e.BaselineNs, speedup)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclc:", err)
		os.Exit(1)
	}
}
