package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord says where a set of numbers came from. It is printed with
// every result and embedded in every trace file: numbers from different
// hosts, core counts or filesystems must not be compared.
type hostRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
	TmpFS      string `json:"tmp_fs"`
	SetupReps  int    `json:"setup_reps"`
	// HostSpeed is reference seconds per wall second over the timed phase
	// of an untraced run (refclock.go): 1 on the reference host at its
	// usual speed, lower when the host was slower.
	HostSpeed float64 `json:"host_speed,omitempty"`
}

func readHost(scratch string) hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		CPUModel:   cpuModel(),
		TmpFS:      fsType(scratch),
	}
}

// gitCommit is best effort: the benchmark also runs from plain source
// trees that are not repositories.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem under dir by its statfs magic; the data
// directories of the durable workloads live there, and fsync on tmpfs
// and on a disk are different operations.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// rssMB reads the process's current resident set from /proc/self/statm.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// watchRSS samples the resident set every 20 ms until stop is called.
// stop cuts the samples into five equal stretches and returns the median
// of their maxima: the peak a stretch of the run typically reaches. The
// single highest sample of a run is one garbage-collection cycle's luck,
// and the kernel's own high-water mark (VmHWM) would report the set-up's
// cold simulations on workloads whose timed phase never simulates.
func watchRSS() (stop func() float64) {
	done, result := make(chan struct{}), make(chan float64)
	go func() {
		samples := []float64{rssMB()}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				samples = append(samples, rssMB())
			case <-done:
				samples = append(samples, rssMB())
				const parts = 5
				var peaks []float64
				for p := 0; p < parts; p++ {
					if part := samples[p*len(samples)/parts : (p+1)*len(samples)/parts]; len(part) > 0 {
						peaks = append(peaks, slices.Max(part))
					}
				}
				result <- median(peaks)
				return
			}
		}
	}()
	return func() float64 { close(done); return <-result }
}
