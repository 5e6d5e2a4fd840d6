package client

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// ClusterClient is a cluster-aware admin client: it reads the same
// persisted membership record the shards coordinate through, maps each
// group to its owning shard via the consistent-hash ring, and sends admin
// operations straight to that shard — no routing gateway on the path. The
// gateway's routing core (membership.View) runs in the client instead:
//
//   - owner miss / 503: try the next ring candidate;
//   - unreachable shard: cache it down and try the next candidate;
//   - 412 with X-Fenced (the shard's store write was epoch-fenced): the
//     client's membership view is stale — reload the record and re-route;
//   - no record or no reachable owner: fall back to the router, if one is
//     configured.
//
// Safe for concurrent use.
type ClusterClient struct {
	// Store is the cloud store holding the membership record.
	Store storage.Store
	// HTTP is the transport; nil selects http.DefaultClient.
	HTTP *http.Client
	// Fallback is a router URL used when direct routing cannot resolve
	// (empty disables the fallback).
	Fallback string
	// RouteTimeout bounds one operation's routing effort (0 selects
	// membership.DefaultRouteTimeout).
	RouteTimeout time.Duration
	// RetryInterval paces re-sweeps while owners are unreachable (0 selects
	// membership.DefaultRetryInterval).
	RetryInterval time.Duration
	// Cache, when set, is wholesale-invalidated each time the client adopts
	// a newer membership epoch — records may have moved or been re-keyed.
	Cache *RecordCache

	view *membership.View

	direct          atomic.Int64
	proxied         atomic.Int64
	fencedRefreshes atomic.Int64

	mRoutes *obs.CounterVec
	mFenced *obs.Counter
}

// NewClusterClient loads the current membership record and returns a
// client routing directly to shards. A store with no record yet is not an
// error: the client starts in fallback-only mode and adopts the record via
// Watch or the first refresh.
func NewClusterClient(ctx context.Context, store storage.Store, fallbackURL string) (*ClusterClient, error) {
	c := &ClusterClient{Store: store, Fallback: fallbackURL}
	c.view = membership.NewView(store, nil, func() {
		if c.Cache != nil {
			c.Cache.InvalidateAll()
		}
	}, nil)
	rec, _, err := membership.Load(ctx, store)
	switch {
	case err == nil:
		_ = c.view.AdoptRecord(rec) // a record naming no URL for a member waits for one that does
	case errors.Is(err, membership.ErrNoRecord):
		// Bootstrap window: route through the fallback until a record lands.
	default:
		return nil, err
	}
	return c, nil
}

// Instrument registers the client's routing counters with the registry.
// Call before serving traffic; a nil registry is a no-op.
func (c *ClusterClient) Instrument(reg *obs.Registry) *ClusterClient {
	if reg == nil {
		return c
	}
	c.mRoutes = reg.CounterVec("ibbe_client_routes_total", "Admin operations by route taken (direct to owner shard vs proxied via router).", "route")
	c.mFenced = reg.Counter("ibbe_client_fenced_refreshes_total", "Membership reloads triggered by a fenced (stale-epoch) response.")
	return c
}

// RouteStats is a snapshot of the client's routing counters.
type RouteStats struct {
	Direct          int64
	Proxied         int64
	FencedRefreshes int64
}

// Stats returns a snapshot of the routing counters.
func (c *ClusterClient) Stats() RouteStats {
	return RouteStats{
		Direct:          c.direct.Load(),
		Proxied:         c.proxied.Load(),
		FencedRefreshes: c.fencedRefreshes.Load(),
	}
}

// Epoch returns the membership epoch the client currently routes by (0
// before any record was adopted).
func (c *ClusterClient) Epoch() uint64 {
	if m := c.view.Membership(); m != nil {
		return m.Epoch
	}
	return 0
}

// Watch follows the persisted membership record until ctx ends, adopting
// each newer epoch (and invalidating the attached record cache when one
// lands) and each republished target set. Run it in its own goroutine
// alongside the client.
func (c *ClusterClient) Watch(ctx context.Context) { c.view.Watch(ctx) }

func (c *ClusterClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// CreateGroup runs Algorithm 1 for a fresh group on the owning shard.
func (c *ClusterClient) CreateGroup(ctx context.Context, group string, members []string) error {
	return c.do(ctx, group, "create", adminOpRequest{Group: group, Members: members})
}

// AddUser adds one user (Algorithm 2).
func (c *ClusterClient) AddUser(ctx context.Context, group, user string) error {
	return c.do(ctx, group, "add", adminOpRequest{Group: group, User: user})
}

// RemoveUser revokes one user (Algorithm 3).
func (c *ClusterClient) RemoveUser(ctx context.Context, group, user string) error {
	return c.do(ctx, group, "remove", adminOpRequest{Group: group, User: user})
}

// AddUsers adds a batch of users with one ciphertext extension per touched
// partition.
func (c *ClusterClient) AddUsers(ctx context.Context, group string, users []string) error {
	return c.do(ctx, group, "add-batch", adminOpRequest{Group: group, Users: users})
}

// RemoveUsers revokes a batch of users under a single fresh group key.
func (c *ClusterClient) RemoveUsers(ctx context.Context, group string, users []string) error {
	return c.do(ctx, group, "remove-batch", adminOpRequest{Group: group, Users: users})
}

// RekeyGroup rotates the group key without membership changes.
func (c *ClusterClient) RekeyGroup(ctx context.Context, group string) error {
	return c.do(ctx, group, "rekey", adminOpRequest{Group: group})
}

// do routes one admin operation through the routing core, surrendering
// to the fallback router only when direct routing cannot complete a pass.
func (c *ClusterClient) do(ctx context.Context, group, op string, body adminOpRequest) error {
	var fallback func(context.Context) (membership.Outcome, error)
	if c.Fallback != "" {
		fallback = func(ctx context.Context) (membership.Outcome, error) {
			err := postAdminOp(ctx, c.httpClient(), c.Fallback, op, body)
			o := outcome(err)
			if o == membership.Served {
				c.noteRoute(&c.proxied, "proxied")
			}
			return o, err
		}
	}
	return c.view.Sweep(ctx, group, c.RouteTimeout, c.RetryInterval, func(ctx context.Context, _, url string, _ bool) (membership.Outcome, error) {
		err := postAdminOp(ctx, c.httpClient(), url, op, body)
		o := outcome(err)
		switch o {
		case membership.Served:
			c.noteRoute(&c.direct, "direct")
		case membership.Fenced:
			c.fencedRefreshes.Add(1)
			incr(c.mFenced)
		}
		return o, err
	}, fallback)
}

// outcome classifies one admin-API answer for the routing sweep.
func outcome(err error) membership.Outcome {
	var apiErr *APIError
	switch {
	case err == nil:
		return membership.Served
	case !errors.As(err, &apiErr):
		return membership.Down
	case apiErr.Fenced || errors.Is(err, ErrFencedEpoch):
		return membership.Fenced
	case errors.Is(err, ErrNotOwner) || apiErr.StatusCode == http.StatusServiceUnavailable:
		return membership.Miss
	default:
		return membership.Answered // a real admin failure; rerouting won't change it
	}
}

func (c *ClusterClient) noteRoute(counter *atomic.Int64, route string) {
	counter.Add(1)
	if c.mRoutes != nil {
		c.mRoutes.With(route).Inc()
	}
}
