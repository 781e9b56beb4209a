// Package sim is the execution-driven GPU simulator standing in for the
// V100 in the paper's evaluation. It executes sass.Kernel programs
// functionally (32-lane warps, divergence stack, real addresses against
// device memory) under a Volta-like timing model (warp schedulers,
// scoreboard dependencies, LG/MIO/TEX issue queues, sectored L1, banked
// shared memory, L2, DRAM bandwidth), producing the two observable
// surfaces GPUscout consumes: per-PC warp-stall distributions (the CUPTI
// PC Sampling substitute) and kernel-wide hardware counters (the ncu
// metric substitute).
//
// Sampled SMs simulate independently — each owns its timing state,
// counters, and bandwidth slices — and may run concurrently
// (Config.Workers); cross-SM global atomics serialize in an
// address-sharded atomic unit, and per-SM results merge in fixed SM-ID
// order so the Result is bit-identical for every worker count.
package sim

import "fmt"

// Stall classifies why a warp could not issue (or that it did). The set
// mirrors the CUPTI/Nsight stall taxonomy the paper discusses; the string
// forms match the smsp__pcsamp_warp_stall_* suffixes.
type Stall uint8

const (
	// StallSelected counts issue cycles (the warp made progress).
	StallSelected Stall = iota
	// StallLongScoreboard waits on a scoreboard dependency for an L1TEX
	// operation: global, local or texture memory data (§4.1, §4.2, §4.6).
	StallLongScoreboard
	// StallShortScoreboard waits on MIO data, typically shared memory
	// (§4.3, §5.3).
	StallShortScoreboard
	// StallWait waits on a fixed-latency ALU dependency.
	StallWait
	// StallLGThrottle waits for room in the L1 instruction queue for
	// local/global operations — too-frequent LG traffic (§3.2, §4.2, §4.4).
	StallLGThrottle
	// StallMIOThrottle waits for room in the MIO instruction queue
	// (shared memory ops; §4.4, §5.3).
	StallMIOThrottle
	// StallTexThrottle waits for room in the TEX instruction queue (§4.6).
	StallTexThrottle
	// StallMathPipeThrottle waits for a busy math pipe (FP64/SFU).
	StallMathPipeThrottle
	// StallBarrier waits at a CTA barrier for sibling warps.
	StallBarrier
	// StallBranchResolving waits for a branch target to resolve.
	StallBranchResolving
	// StallNotSelected was eligible but another warp was issued.
	StallNotSelected
	// StallDrain waits for outstanding stores to drain at EXIT.
	StallDrain

	NumStalls
)

var stallNames = [...]string{
	StallSelected:         "selected",
	StallLongScoreboard:   "long_scoreboard",
	StallShortScoreboard:  "short_scoreboard",
	StallWait:             "wait",
	StallLGThrottle:       "lg_throttle",
	StallMIOThrottle:      "mio_throttle",
	StallTexThrottle:      "tex_throttle",
	StallMathPipeThrottle: "math_pipe_throttle",
	StallBarrier:          "barrier",
	StallBranchResolving:  "branch_resolving",
	StallNotSelected:      "not_selected",
	StallDrain:            "drain",
}

func (s Stall) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return "unknown"
}

// MarshalText is the stall's wire form: its String.
func (s Stall) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads the wire form back.
func (s *Stall) UnmarshalText(text []byte) error {
	for v := Stall(0); v < NumStalls; v++ {
		if v.String() == string(text) {
			*s = v
			return nil
		}
	}
	return fmt.Errorf("sim: unknown stall %q", text)
}

// Explain returns the verbose interpretation GPUscout prints alongside a
// stall reason (the paper's "more verbose explanations of the observed
// stalls", §3).
func (s Stall) Explain() string {
	switch s {
	case StallSelected:
		return "warp was selected by the scheduler and issued an instruction"
	case StallLongScoreboard:
		return "warp stalled waiting on a scoreboard dependency for L1TEX (global, local or texture memory) data; reduce memory latency exposure by vectorizing loads, improving locality, or increasing occupancy"
	case StallShortScoreboard:
		return "warp stalled waiting on MIO data, typically a shared-memory load; reduce shared-memory bank conflicts or re-order computation to hide the latency"
	case StallWait:
		return "warp stalled on a fixed-latency dependency between back-to-back arithmetic instructions"
	case StallLGThrottle:
		return "warp stalled waiting for the L1 instruction queue for local and global (LG) memory operations to be not full; typically caused by executing local or global memory operations too frequently — register spills amplify this"
	case StallMIOThrottle:
		return "warp stalled waiting for the MIO (memory input/output) instruction queue to be not full; high utilization of the MIO pipeline from shared-memory instructions causes this"
	case StallTexThrottle:
		return "warp stalled waiting for the TEX instruction queue to be not full; too many outstanding texture fetches fill the TEX pipeline"
	case StallMathPipeThrottle:
		return "warp stalled waiting for a heavily utilized math pipeline (FP64/SFU) to become available"
	case StallBarrier:
		return "warp stalled at a CTA barrier waiting for sibling warps to arrive; consider balancing work between warps of a block"
	case StallBranchResolving:
		return "warp stalled waiting for a branch target to be computed and the program counter to be updated"
	case StallNotSelected:
		return "warp was eligible but the scheduler selected a different warp; abundant eligible warps — not a bottleneck"
	case StallDrain:
		return "warp stalled at EXIT waiting for outstanding memory writes to drain"
	}
	return "unknown stall reason"
}
