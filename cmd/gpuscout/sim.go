package main

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"gpuscout"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// runSim is `gpuscout sim`: it runs a workload on the simulated GPU and
// prints raw simulation data — duration, occupancy, stall breakdown,
// cache/DRAM counters, and optionally the disassembly. It is the "just
// run it" companion to the analysis.
func runSim(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpuscout sim", flag.ExitOnError)
	var (
		name     = fs.String("workload", "", "workload to run (see gpuscout -list)")
		scale    = fs.Int("scale", 0, "workload scale (0 = default)")
		archName = fs.String("arch", "sm_70", "GPU architecture")
		sample   = fs.Int("sample-sms", 2, "SMs to simulate")
		disas    = fs.Bool("disas", false, "print the kernel disassembly")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage text
	if *name == "" {
		fs.Usage()
		return usageError("sim: nothing to run: give -workload")
	}
	arch, err := gpu.ByName(*archName)
	if err != nil {
		return err
	}
	w, err := workloads.BuildArch(*name, *scale, arch)
	if err != nil {
		return err
	}
	if *disas {
		fmt.Fprintln(stdout, gpuscout.PrintSASS(w.Kernel))
	}

	dev := sim.NewDevice(arch)
	res, err := workloads.Execute(w, dev, sim.Config{SampleSMs: *sample})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "kernel        %s (%s)\n", w.Kernel.Name, w.Description)
	fmt.Fprintf(stdout, "grid/block    %v / %v (%d blocks, %d simulated on %d of %d SMs)\n",
		res.Grid, res.Block, res.TotalBlocks, res.SimulatedBlocks, res.SimulatedSMs, res.NumSMs)
	fmt.Fprintf(stdout, "duration      %.0f cycles = %.3f ms at %.2f GHz\n",
		res.Cycles, res.DurationSec*1e3, arch.ClockGHz)
	fmt.Fprintf(stdout, "occupancy     theoretical %.0f%% (limited by %s), achieved %.0f%%\n",
		100*res.Occupancy.Theoretical, res.Occupancy.Limiter, 100*res.AchievedOccupancy)
	fmt.Fprintf(stdout, "instructions  %d warp, %d thread (IPC %.2f)\n",
		res.Counters.WarpInsts, res.Counters.ThreadInsts, res.IPC())
	fmt.Fprintf(stdout, "registers     %d/thread, %d B shared/block, %d B local/thread\n",
		w.Kernel.NumRegs, w.Kernel.SharedBytes, w.Kernel.LocalBytes)

	fmt.Fprintln(stdout, "\nwarp stalls (share of stall cycles):")
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
		fmt.Fprintf(stdout, "  %-22s %6.2f%%\n", e.s, 100*e.v)
	}

	c := res.Counters
	fmt.Fprintln(stdout, "\nmemory system (simulated blocks):")
	fmt.Fprintf(stdout, "  global  ld %d sectors (%.1f%% L1 hit), st %d sectors\n",
		c.GlobalLdSectors, pct(c.GlobalLdSectorHits, c.GlobalLdSectors), c.GlobalStSectors)
	fmt.Fprintf(stdout, "  local   ld %d sectors (%.1f%% L1 hit), st %d sectors\n",
		c.LocalLdSectors, pct(c.LocalLdSectorHits, c.LocalLdSectors), c.LocalStSectors)
	fmt.Fprintf(stdout, "  shared  %d ld / %d st insts, %d / %d transactions\n",
		c.SharedLdInsts, c.SharedStInsts, c.SharedLdTrans, c.SharedStTrans)
	fmt.Fprintf(stdout, "  texture %d sectors (%.1f%% hit)\n", c.TexSectors, pct(c.TexSectorHits, c.TexSectors))
	fmt.Fprintf(stdout, "  atomics %d global, %d shared\n", c.GlobalAtomics, c.SharedAtomics)
	fmt.Fprintf(stdout, "  L2      %d sectors (%.1f%% hit)\n", c.L2Sectors, pct(c.L2Hits, c.L2Sectors))
	fmt.Fprintf(stdout, "  DRAM    %d B read, %d B written\n", c.DRAMReadBytes, c.DRAMWriteBytes)
	return nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
