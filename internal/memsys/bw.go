package memsys

// Bandwidth models a shared service resource (DRAM channels, the L2 slice
// bandwidth) as a single queue with a fixed byte rate. Requests occupy the
// resource back-to-back: a request arriving while the resource is busy is
// delayed, which is how memory-bandwidth-bound kernels (naive SGEMM,
// §5.3) saturate in the model.
type Bandwidth struct {
	BytesPerCycle float64
	busyUntil     float64
}

// NewBandwidth creates a resource serving bytesPerCycle.
func NewBandwidth(bytesPerCycle float64) *Bandwidth {
	if bytesPerCycle <= 0 {
		panic("memsys: bandwidth must be positive")
	}
	return &Bandwidth{BytesPerCycle: bytesPerCycle}
}

// Request schedules a transfer of n bytes arriving at time now (cycles)
// and returns its completion time. Completion times are monotone in
// arrival order.
func (b *Bandwidth) Request(now float64, n int) float64 {
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start + float64(n)/b.BytesPerCycle
	return b.busyUntil
}

// QueueDelay returns how long a request arriving now would wait before
// service begins, without scheduling anything.
func (b *Bandwidth) QueueDelay(now float64) float64 {
	if b.busyUntil > now {
		return b.busyUntil - now
	}
	return 0
}
