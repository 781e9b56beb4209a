package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"gpuscout/internal/advisor"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
)

// reportCache is a thread-safe LRU of marshaled report JSON, keyed by
// CacheKey, bounded by entry count and — when maxBytes > 0 — by total
// payload bytes, so a cache of a few huge sweep reports cannot dwarf the
// heap the way a pure entry cap would allow. Entries are immutable byte
// slices, so a cached report can be handed to concurrent readers without
// copying.
type reportCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	bytes    int64      // sum of cached payload lengths
	ll       *list.List // front = most recently used
	m        map[string]*list.Element
}

type cacheEntry struct {
	key  string
	data []byte
}

func newReportCache(capacity int, maxBytes int64) *reportCache {
	return &reportCache{cap: capacity, maxBytes: maxBytes, ll: list.New(), m: map[string]*list.Element{}}
}

// get returns the cached report for key, refreshing its recency.
func (c *reportCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// put stores data under key, evicting least recently used entries while
// over the entry cap or the byte bound. A zero or negative capacity
// disables the cache; an entry larger than the whole byte bound is not
// cached at all (it would evict everything and still not fit).
func (c *reportCache) put(key string, data []byte) {
	if c.cap <= 0 {
		return
	}
	if c.maxBytes > 0 && int64(len(data)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
		c.bytes += int64(len(data))
	}
	for c.ll.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.m, e.key)
		c.bytes -= int64(len(e.data))
	}
}

// size returns the number of cached reports.
func (c *reportCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bytesUsed returns the total cached payload bytes.
func (c *reportCache) bytesUsed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// lookupLocal probes this replica's own tiers: the memory cache, then
// the persistent store (a warm restart, or a replica rejoining the ring,
// finds previously computed reports on disk); a disk hit is promoted
// into the memory tier. It returns the tier that answered ("" on a
// miss); the caller counts a memory hit and, with a store, a disk miss
// (not Submit: a worker's lookup follows its miss).
func (s *Service) lookupLocal(key string) (data []byte, tier string) {
	if data, ok := s.cache.get(key); ok {
		return data, tierMemory
	}
	if st := s.cfg.Store; st != nil {
		if data, ok := st.GetReport(key); ok {
			s.storeHits.Inc()
			s.cache.put(key, data)
			return data, tierDisk
		}
	}
	return nil, ""
}

// lookup is the one tiered probe in front of the pipeline: memory → disk
// → peer → miss (tier ""). The peer tier exists because, in a cluster, a
// key this replica has never seen may already be warm in the ring
// owner's cache (the key was rebalanced here, or we are taking failover
// traffic): one bounded peer lookup is far cheaper than re-simulating, a
// hit is written through both local tiers, and any failure falls through.
// A peer's bytes are the one report source from outside this process
// (the local tiers hold what MarshalJSON produced, the store's behind a
// checksum), and every answer splices a report in verbatim: bytes that
// are not JSON are refused here, once per fill, and count as a miss.
func (s *Service) lookup(ctx context.Context, fingerprint, key string) (data []byte, tier string) {
	if data, tier = s.lookupLocal(key); tier != "" {
		if tier == tierMemory {
			s.cacheHits.Inc()
		}
		return data, tier
	}
	if s.cfg.Store != nil {
		s.storeMisses.Inc()
	}
	if s.cfg.PeerFill != nil {
		if data, ok := s.cfg.PeerFill(ctx, fingerprint, key); ok && len(data) > 0 && json.Valid(data) {
			s.peerFillHits.Inc()
			s.publish(key, fingerprint, data)
			return data, tierPeer
		}
		s.peerFillMiss.Inc()
	}
	s.cacheMisses.Inc()
	return nil, ""
}

// publish stores report bytes in the memory cache and writes them
// through to the persistent store. A failed disk write is swallowed: the
// report is already on its way to the client, and losing the disk copy
// only costs a future recompute.
func (s *Service) publish(key, fingerprint string, data []byte) {
	s.cache.put(key, data)
	if st := s.cfg.Store; st != nil {
		_ = st.PutReport(key, fingerprint, data)
	}
}

// modelDigest versions every stored report: the first 12 hex digits of a
// SHA-256 over each file under internal/advisor/testdata/golden (sorted
// relative path, then bytes) and internal/workloads/testdata/pinned.json.
// TestModelDigestCoversGoldens fails with the value to paste (`make
// digest` prints it) when the tree no longer hashes to it, so no golden
// or pinned build moves — simulator, detector, renderer, codegen —
// without reports stored under the older model becoming unreachable. A
// change no golden scale shows needs a golden that shows it (DESIGN §7).
const modelDigest = "f57714f99646"

// CacheKey is the address of one analysis report: the SHA-256 of the
// model digest, the target architecture tag, the launch fingerprint, the
// analysis options that change the report and — under the launch "static"
// only — the kernel's canonical SASS text.
//
// A report about a built-in workload is addressed by name: its launch
// fingerprint carries workload and resolved scale, which determine the
// kernel, so under a named launch canonicalSASS is not hashed (the daemon
// does not have it then; bench/, which does, passes it). A report about
// an uploaded kernel is addressed by content: "static" and its canonical
// SASS, so a kernel has one entry as SASS text and as a cubin.
//
// verify distinguishes reports with counterfactual Verification blocks
// from plain ones: the same analysis with verification enabled carries
// extra measured data, so the two must not share a cache entry. The same
// holds for sensitivity (perturbation-sweep blocks plus payoff-ranked
// ordering) and opts.StallSlices (backward producer chains): each knob
// changes the report bytes, so each is part of the address.
func CacheKey(canonicalSASS, archTag, launch string, opts scout.Options, verify, sensitivity bool) string {
	h := sha256.New()
	io.WriteString(h, "gpuscoutd-report-"+modelDigest+"\x00")
	io.WriteString(h, archTag)
	h.Write([]byte{0})
	io.WriteString(h, launch)
	h.Write([]byte{0})
	// A swept report is addressed by the matrix it was swept under, not
	// by a bare "true": a change to gpu.Perturbations re-keys every swept
	// report, so a warm -data-dir never serves a report with another
	// matrix's rows. Unswept reports keep hashing "false".
	swept := "false"
	if sensitivity {
		var ids []string
		for _, p := range gpu.Perturbations() {
			ids = append(ids, p.ID())
		}
		swept = strings.Join(ids, ",")
	}
	// opts.Sim.Workers is deliberately not fingerprinted: the simulator
	// guarantees bit-identical results for every worker count, so a
	// report computed at any parallelism serves requests at all of them.
	fmt.Fprintf(h, "dryrun=%t period=%g samplesms=%d maxcycles=%g verify=%t sensitivity=%s slices=%t",
		opts.DryRun, opts.SamplingPeriod, opts.Sim.SampleSMs, opts.Sim.MaxCycles,
		verify, swept, opts.StallSlices)
	h.Write([]byte{0})
	if launch == "static" {
		io.WriteString(h, canonicalSASS)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requestKey is the CacheKey of a resolved request, by what its report is
// about: an uploaded kernel's canonical SASS, or a built-in workload's
// name and resolved scale — no kernel is needed, or lowered, for those —
// plus the second arch tag for a comparison, so it never shares an entry
// with the plain report of the same workload.
func requestKey(plans []advisor.Plan) string {
	base := plans[0]
	if base.Kernel != nil {
		return CacheKey(sass.Print(base.Kernel), base.Arch.SM, "static", base.Opts, base.Verify, base.Sensitivity)
	}
	launch := fmt.Sprintf("workload=%s scale=%d", base.Workload, base.Scale)
	if len(plans) == 2 {
		launch += " archcmp=" + plans[1].Arch.SM
	}
	return CacheKey("", base.Arch.SM, launch, base.Opts, base.Verify, base.Sensitivity)
}
