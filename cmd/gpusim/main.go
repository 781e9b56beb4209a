// Command gpusim runs a kernel on the simulated GPU and prints raw
// simulation data: duration, occupancy, stall breakdown, cache/DRAM
// counters, and optionally the disassembly. It is the "just run it"
// companion to the gpuscout analysis CLI.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"gpuscout"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see gpuscout -list)")
		scale    = flag.Int("scale", 0, "workload scale (0 = default)")
		archName = flag.String("arch", "sm_70", "GPU architecture")
		sample   = flag.Int("sample-sms", 2, "SMs to simulate")
		disas    = flag.Bool("disas", false, "print the kernel disassembly")
	)
	flag.Parse()
	if *name == "" {
		flag.Usage()
		os.Exit(2)
	}
	arch, err := gpu.ByName(*archName)
	if err != nil {
		fatal(err)
	}
	w, err := workloads.BuildArch(*name, *scale, arch)
	if err != nil {
		fatal(err)
	}
	if *disas {
		fmt.Println(gpuscout.PrintSASS(w.Kernel))
	}

	dev := sim.NewDevice(arch)
	res, err := workloads.Execute(w, dev, sim.Config{SampleSMs: *sample})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("kernel        %s (%s)\n", w.Kernel.Name, w.Description)
	fmt.Printf("grid/block    %v / %v (%d blocks, %d simulated on %d of %d SMs)\n",
		res.Grid, res.Block, res.TotalBlocks, res.SimulatedBlocks, res.SimulatedSMs, res.NumSMs)
	fmt.Printf("duration      %.0f cycles = %.3f ms at %.2f GHz\n",
		res.Cycles, res.DurationSec*1e3, arch.ClockGHz)
	fmt.Printf("occupancy     theoretical %.0f%% (limited by %s), achieved %.0f%%\n",
		100*res.Occupancy.Theoretical, res.Occupancy.Limiter, 100*res.AchievedOccupancy)
	fmt.Printf("instructions  %d warp, %d thread (IPC %.2f)\n",
		res.Counters.WarpInsts, res.Counters.ThreadInsts, res.IPC())
	fmt.Printf("registers     %d/thread, %d B shared/block, %d B local/thread\n",
		w.Kernel.NumRegs, w.Kernel.SharedBytes, w.Kernel.LocalBytes)

	fmt.Println("\nwarp stalls (share of stall cycles):")
	type sv struct {
		s sim.Stall
		v float64
	}
	var stalls []sv
	for s := sim.Stall(0); s < sim.NumStalls; s++ {
		if s == sim.StallSelected {
			continue
		}
		if share := res.StallShare(s); share > 0 {
			stalls = append(stalls, sv{s, share})
		}
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i].v > stalls[j].v })
	for _, e := range stalls {
		fmt.Printf("  %-22s %6.2f%%\n", e.s, 100*e.v)
	}

	c := res.Counters
	fmt.Println("\nmemory system (simulated blocks):")
	fmt.Printf("  global  ld %d sectors (%.1f%% L1 hit), st %d sectors\n",
		c.GlobalLdSectors, pct(c.GlobalLdSectorHits, c.GlobalLdSectors), c.GlobalStSectors)
	fmt.Printf("  local   ld %d sectors (%.1f%% L1 hit), st %d sectors\n",
		c.LocalLdSectors, pct(c.LocalLdSectorHits, c.LocalLdSectors), c.LocalStSectors)
	fmt.Printf("  shared  %d ld / %d st insts, %d / %d transactions\n",
		c.SharedLdInsts, c.SharedStInsts, c.SharedLdTrans, c.SharedStTrans)
	fmt.Printf("  texture %d sectors (%.1f%% hit)\n", c.TexSectors, pct(c.TexSectorHits, c.TexSectors))
	fmt.Printf("  atomics %d global, %d shared\n", c.GlobalAtomics, c.SharedAtomics)
	fmt.Printf("  L2      %d sectors (%.1f%% hit)\n", c.L2Sectors, pct(c.L2Hits, c.L2Sectors))
	fmt.Printf("  DRAM    %d B read, %d B written\n", c.DRAMReadBytes, c.DRAMWriteBytes)
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusim:", err)
	os.Exit(1)
}
