package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

func testRouter(t *testing.T) (*Router, *Membership) {
	t.Helper()
	m, err := NewMembership([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	rt, err := NewRouter(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	return rt, m
}

func TestRouterApplyMembership(t *testing.T) {
	rt, m := testRouter(t)

	// Stale epochs are ignored.
	if err := rt.ApplyMembership(m, map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}); err != nil {
		t.Fatal(err)
	}
	if rt.Membership() != m {
		t.Fatal("duplicate epoch replaced the membership")
	}
	// Missing targets are rejected.
	grown, err := m.AddShard("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.ApplyMembership(grown, map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}); err == nil {
		t.Fatal("membership without a target for d accepted")
	}
	// A real epoch bump swaps membership.
	targets := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c", "d": "http://d"}
	if err := rt.ApplyMembership(grown, targets); err != nil {
		t.Fatal(err)
	}
	if rt.Membership().Epoch != grown.Epoch {
		t.Fatalf("router epoch = %d, want %d", rt.Membership().Epoch, grown.Epoch)
	}
}

// TestRouterFollowsRepublishedTargets: a gateway restart rebinds its shards
// to new ports and republishes the record at the SAME epoch
// (Cluster.PublishTargets). A store-following router that adopted the
// epoch before the restart must dial the new URL, not the dead one.
func TestRouterFollowsRepublishedTargets(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	var hits atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer live.Close()

	store := storage.NewMemStore(storage.Latency{})
	m, err := NewMembership([]string{"shard-0"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	publish := func(url string) {
		_, ver, err := LoadMembership(ctx, store)
		if err != nil && !errors.Is(err, ErrNoMembership) {
			t.Fatal(err)
		}
		if err := PublishMembership(ctx, store, recordOf(m, map[string]string{"shard-0": url}), ver); err != nil {
			t.Fatal(err)
		}
	}
	publish(deadURL)
	rt, err := NewRouterFromStore(ctx, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.RetryInterval = 5 * time.Millisecond
	rt.RouteTimeout = 3 * time.Second
	publish(live.URL)
	go rt.Watch(ctx)
	srv := httptest.NewServer(rt)
	defer srv.Close()

	if err := client.NewAdminAPI(nil, srv.URL).AddUser(ctx, "team-x", "alice@example.com"); err != nil {
		t.Fatalf("op through the router after the same-epoch republish: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("live shard hits = %d, want 1", hits.Load())
	}
}
