// Routing core: the one place a request is steered to the shard owning its
// group. The cluster gateway (cluster.Router) and the gateway-less admin
// client (client.ClusterClient) both wrap a View: it holds the adopted
// membership and shard URLs, re-reads the persisted record when an answer
// proves it stale, remembers unreachable shards for a short TTL, and runs
// the ring-order sweep over a group's owner candidates.
package membership

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

const (
	// RefreshInterval rate-limits event-driven record re-reads (routers,
	// clients and shards alike): a burst of fenced answers arrives exactly
	// when the store is busiest, and must cost one read per window.
	RefreshInterval = 250 * time.Millisecond
	// HealthTTL bounds how long a cached "shard is down" verdict is trusted
	// before the shard is probed again.
	HealthTTL = 2 * time.Second
	// DefaultRouteTimeout bounds one request's routing effort; it must
	// cover a lease TTL, the window during which a dead shard's groups are
	// stuck.
	DefaultRouteTimeout = 30 * time.Second
	// DefaultRetryInterval paces re-sweeps while no candidate can serve.
	DefaultRetryInterval = 25 * time.Millisecond
)

// Outcome classifies one routed attempt; the five values are the sweep's
// whole decision table.
type Outcome int

const (
	// Served: the candidate answered the request; the sweep ends.
	Served Outcome = iota
	// Miss: the candidate does not own the group (yet) or is unavailable
	// (503); the sweep tries the next candidate.
	Miss
	// Down: the candidate could not be reached; it is cached down for
	// HealthTTL and the sweep tries the next candidate.
	Down
	// Fenced: the candidate's store write was epoch-fenced, so the view is
	// stale; the record is re-read and the sweep restarts under it.
	Fenced
	// Answered: any other answer, typically a genuine admin failure; the
	// sweep ends with it, since rerouting cannot change it.
	Answered
)

// Attempt sends one request to a candidate shard at its URL. preferred
// reports whether the candidate heads the ring order (the group's owner).
type Attempt func(ctx context.Context, shard, url string, preferred bool) (Outcome, error)

// View is a routing view of the cluster: one adopted membership, the shard
// URLs, and a per-shard health cache. Safe for concurrent use.
type View struct {
	// pinned URLs (shards the caller's own process serves) win over any
	// record's.
	pinned map[string]string
	// onMove runs after an epoch bump replaces an earlier membership;
	// onSkip runs for each candidate the health cache skips. Either may be
	// nil.
	onMove func()
	onSkip func(shard string)

	mu      sync.Mutex
	store   storage.Store
	m       *Membership
	targets map[string]string
	// downUntil holds cached down verdicts; a shard is skipped until its
	// deadline passes.
	downUntil   map[string]time.Time
	lastRefresh time.Time
}

// NewView builds an empty view (Adopt installs the first membership).
// store, which may be nil until SetStore, carries the persisted record.
func NewView(store storage.Store, pinned map[string]string, onMove func(), onSkip func(shard string)) *View {
	return &View{store: store, pinned: maps.Clone(pinned), onMove: onMove, onSkip: onSkip, downUntil: make(map[string]time.Time)}
}

// SetStore points the view at the store carrying the persisted record, for
// Watch and the sweep's refreshes.
func (v *View) SetStore(store storage.Store) {
	v.mu.Lock()
	v.store = store
	v.mu.Unlock()
}

// Membership returns the adopted membership (nil before any adoption).
func (v *View) Membership() *Membership {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m
}

// Adopt is the view's one adoption rule. URLs are layered: the known ones,
// then targets (a record may name only some shards), then the pinned ones;
// a membership leaving any member without a URL is refused. A newer epoch
// replaces the membership and forgets every health verdict, since shards
// join, drain and restart exactly then. The current epoch with changed
// URLs, which a gateway restart publishes after rebinding its shards to
// new ports, updates only those URLs and their shards' verdicts: ownership
// did not move. Anything else is stale and ignored.
func (v *View) Adopt(m *Membership, targets map[string]string) error {
	v.mu.Lock()
	if v.m != nil && m.Epoch < v.m.Epoch {
		v.mu.Unlock()
		return nil
	}
	merged := make(map[string]string, len(v.targets)+len(targets))
	for _, src := range []map[string]string{v.targets, targets, v.pinned} {
		for id, u := range src {
			merged[id] = u
		}
	}
	for _, id := range m.Members() {
		if merged[id] == "" {
			v.mu.Unlock()
			return fmt.Errorf("cluster: no target URL for %s", id)
		}
	}
	moved := false
	if v.m == nil || m.Epoch > v.m.Epoch {
		moved = v.m != nil
		v.m = m
		v.downUntil = make(map[string]time.Time)
	} else {
		for id, u := range merged {
			if v.targets[id] != u {
				delete(v.downUntil, id)
			}
		}
	}
	v.targets = merged
	v.mu.Unlock()
	if moved && v.onMove != nil {
		v.onMove()
	}
	return nil
}

// AdoptRecord adopts a persisted record under Adopt's rule.
func (v *View) AdoptRecord(rec *Record) error {
	m, err := rec.Membership()
	if err != nil {
		return err
	}
	return v.Adopt(m, rec.Targets)
}

// Watch follows the persisted record until ctx ends, adopting each newer
// epoch or republished URL set. Without a store it returns at once.
func (v *View) Watch(ctx context.Context) {
	v.mu.Lock()
	store := v.store
	v.mu.Unlock()
	if store == nil {
		return
	}
	Watch(ctx, store, func(rec *Record) { _ = v.AdoptRecord(rec) })
}

// refresh re-reads and adopts the persisted record, at most once per
// RefreshInterval.
func (v *View) refresh(ctx context.Context) {
	v.mu.Lock()
	store := v.store
	if store == nil || time.Since(v.lastRefresh) < RefreshInterval {
		v.mu.Unlock()
		return
	}
	v.lastRefresh = time.Now()
	v.mu.Unlock()
	if rec, _, err := Load(ctx, store); err == nil {
		_ = v.AdoptRecord(rec)
	}
}

// snapshot returns one pass's candidates, the group's owners in ring order
// (every member, sorted, for group ""), and the URL map. It is re-read per
// pass, so a membership change redirects the next pass.
func (v *View) snapshot(group string) ([]string, map[string]string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch {
	case v.m == nil:
		return nil, nil
	case group == "":
		return v.m.Members(), v.targets
	default:
		return v.m.Owners(group), v.targets
	}
}

func (v *View) markDown(id string) {
	v.mu.Lock()
	v.downUntil[id] = time.Now().Add(HealthTTL)
	v.mu.Unlock()
}

func (v *View) markUp(id string) {
	v.mu.Lock()
	delete(v.downUntil, id)
	v.mu.Unlock()
}

// skipDown splits candidates into the ones worth probing and the ones
// cached down. When every candidate is cached down the cache is ignored:
// a pass must probe something, or a full outage would not be re-examined
// before the TTL.
func (v *View) skipDown(candidates []string) (live, skipped []string) {
	v.mu.Lock()
	now := time.Now()
	live = make([]string, 0, len(candidates))
	for _, id := range candidates {
		if until, ok := v.downUntil[id]; !ok || now.After(until) {
			live = append(live, id)
		} else {
			skipped = append(skipped, id)
		}
	}
	v.mu.Unlock()
	if len(live) == 0 {
		return candidates, nil
	}
	return live, skipped
}

// Sweep routes one request: it passes over group's candidates in ring
// order, acting on each attempt's Outcome, until an attempt ends the
// request or timeout passes. A pass that no candidate served re-reads the
// record (rate-limited; a stale ring may not contain today's owner), gives
// fallback a turn unless the pass was fenced, and is retried after retry.
// fallback may be nil; zero timeout or retry selects the default. The
// error is Answered's error, or the last failure once time is up.
func (v *View) Sweep(ctx context.Context, group string, timeout, retry time.Duration, try Attempt, fallback func(context.Context) (Outcome, error)) error {
	if timeout <= 0 {
		timeout = DefaultRouteTimeout
	}
	if retry <= 0 {
		retry = DefaultRetryInterval
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	lastErr := errors.New("no shard reachable")
	for {
		candidates, targets := v.snapshot(group)
		live, skipped := v.skipDown(candidates)
		if v.onSkip != nil {
			for _, id := range skipped {
				v.onSkip(id)
			}
		}
		fenced := false
	pass:
		for _, id := range live {
			o, err := try(ctx, id, targets[id], id == candidates[0])
			if err != nil {
				lastErr = fmt.Errorf("%s: %w", id, err)
			}
			if o != Down {
				v.markUp(id)
			}
			switch o {
			case Served, Answered:
				return err
			case Down:
				// A transport failure caused by OUR deadline (or the
				// caller's disconnect) says nothing about the shard.
				if ctx.Err() == nil {
					v.markDown(id)
				}
			case Fenced:
				fenced = true
				break pass
			}
		}
		v.refresh(ctx)
		if fallback != nil && !fenced {
			switch o, err := fallback(ctx); o {
			case Served, Answered:
				return err
			default:
				if err != nil {
					lastErr = err
				}
			}
		}
		if sleepCtx(ctx, retry) != nil {
			return fmt.Errorf("no shard could serve the request: %w", lastErr)
		}
	}
}
