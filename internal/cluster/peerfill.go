package cluster

import (
	"context"
	"io"
	"net/http"
	"time"

	"gpuscout/internal/faultinject"
)

// sitePeerFill gates the whole peer-fill attempt: an armed delay models
// a slow peer (the fill budget expires and the worker simulates
// locally), an armed error models a peer that cannot be asked at all.
var sitePeerFill = faultinject.Register("cluster.peerfill")

// PeerCacheConfig tunes the worker-side cache-fill client. The zero
// value selects defaults.
type PeerCacheConfig struct {
	// Timeout bounds one whole Fill attempt, peers included. It should
	// be far below a simulation's cost and is a hard budget: when it
	// expires the worker simulates locally (default 750ms).
	Timeout time.Duration
	// MaxBytes caps an accepted peer report (default 32 MiB).
	MaxBytes int64
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// PeerCache is the worker half of the two-tier cache: on a local miss
// the service's PeerFill hook calls Fill, which asks the key's ring
// owner(s) for the already-rendered report bytes before falling back to
// simulation.
//
// Fill always consults the preference chain *excluding this replica*:
// if we are the ring owner, the first peer asked is our failover
// successor — exactly where this key's reports accumulated while we
// were down, which is what makes a rejoining owner warm up from peers
// instead of re-simulating its whole key range.
type PeerCache struct {
	ring     *Ring
	self     string
	client   *http.Client
	timeout  time.Duration
	maxBytes int64
}

// NewPeerCache builds the fill client for one replica. replicas is the
// same static list every cluster member is configured with; self is
// this replica's own advertised URL (skipped when walking the ring).
func NewPeerCache(replicas []string, self string, cfg PeerCacheConfig) *PeerCache {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 750 * time.Millisecond
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 32 << 20
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &PeerCache{
		ring:     NewRing(replicas),
		self:     self,
		client:   client,
		timeout:  cfg.Timeout,
		maxBytes: cfg.MaxBytes,
	}
}

// Fill implements service.Config.PeerFill: it asks up to two preferred
// peers for the cached report under cacheKey, routed by the input
// fingerprint (the same key the coordinator routes by). Any failure —
// peer down, slow, 404, oversized — returns (nil, false) and the caller
// simulates locally; peer fill never makes a request fail.
func (p *PeerCache) Fill(ctx context.Context, fingerprint, cacheKey string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	if err := faultinject.Hit(sitePeerFill); err != nil {
		return nil, false
	}
	if ctx.Err() != nil {
		// An injected delay (or a caller already out of budget) burned
		// the fill window: degrade to local simulation.
		return nil, false
	}
	asked := 0
	for _, peer := range p.ring.Owners(fingerprint, len(p.ring.members)) {
		if peer == p.self {
			continue
		}
		if asked >= 2 || ctx.Err() != nil {
			break
		}
		asked++
		if data, ok := p.ask(ctx, peer, cacheKey); ok {
			return data, true
		}
	}
	return nil, false
}

func (p *PeerCache) ask(ctx context.Context, peer, cacheKey string) ([]byte, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/internal/v1/cache/"+cacheKey, nil)
	if err != nil {
		return nil, false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, p.maxBytes+1))
	if err != nil || int64(len(data)) > p.maxBytes || len(data) == 0 {
		return nil, false
	}
	return data, true
}
