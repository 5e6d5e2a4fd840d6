package membership

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

func testView(t *testing.T) (*View, *Membership) {
	t.Helper()
	m, err := New([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(nil, nil, nil, nil)
	if err := v.Adopt(m, map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}); err != nil {
		t.Fatal(err)
	}
	return v, m
}

func TestViewHealthCacheSkipsDownShards(t *testing.T) {
	v, _ := testView(t)

	v.markDown("b")
	live, skipped := v.skipDown([]string{"a", "b", "c"})
	if len(live) != 2 || live[0] != "a" || live[1] != "c" {
		t.Fatalf("skipDown = %v, want [a c]", live)
	}
	if len(skipped) != 1 || skipped[0] != "b" {
		t.Fatalf("skipped = %v, want [b]", skipped)
	}
	// A successful probe clears the verdict.
	v.markUp("b")
	if live, _ := v.skipDown([]string{"a", "b", "c"}); len(live) != 3 {
		t.Fatalf("skipDown after markUp = %v", live)
	}
	// With EVERY candidate cached down, the cache is ignored — a sweep must
	// always probe something.
	v.markDown("a")
	v.markDown("b")
	v.markDown("c")
	if live, _ := v.skipDown([]string{"a", "b", "c"}); len(live) != 3 {
		t.Fatalf("skipDown under full outage = %v, want all candidates", live)
	}
}

func TestViewHealthCacheExpires(t *testing.T) {
	v, _ := testView(t)
	v.markDown("b")
	// Let the verdict's TTL run out without sleeping through HealthTTL.
	v.mu.Lock()
	v.downUntil["b"] = v.downUntil["b"].Add(-HealthTTL - time.Millisecond)
	v.mu.Unlock()
	if live, _ := v.skipDown([]string{"a", "b"}); len(live) != 2 {
		t.Fatalf("verdict survived its TTL: %v", live)
	}
}

func TestViewAdoptInvalidatesHealthCache(t *testing.T) {
	moves := 0
	v := NewView(nil, nil, func() { moves++ }, nil)
	m, err := New([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Adopt(m, map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}); err != nil {
		t.Fatal(err)
	}
	v.markDown("b")
	grown, err := m.AddShard("d")
	if err != nil {
		t.Fatal(err)
	}
	// The known URLs carry over; only the new member's is needed.
	if err := v.Adopt(grown, map[string]string{"d": "http://d"}); err != nil {
		t.Fatal(err)
	}
	if live, _ := v.skipDown([]string{"a", "b"}); len(live) != 2 {
		t.Fatalf("health cache survived the epoch change: %v", live)
	}
	if moves != 1 {
		t.Fatalf("onMove ran %d times, want 1 (the first adoption moves nothing)", moves)
	}
}

// TestViewSameEpochTargets: a record republished at the current epoch with
// new URLs (a gateway restart) updates the URLs and clears only the changed
// shards' verdicts; ownership did not move, so neither does the membership.
func TestViewSameEpochTargets(t *testing.T) {
	moves := 0
	v := NewView(nil, map[string]string{"c": "http://c-local"}, func() { moves++ }, nil)
	m, err := New([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Adopt(m, map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}); err != nil {
		t.Fatal(err)
	}
	v.markDown("a")
	v.markDown("b")
	same, err := At(m.Epoch, m.Members(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Adopt(same, map[string]string{"a": "http://a", "b": "http://b2", "c": "http://c2"}); err != nil {
		t.Fatal(err)
	}
	if v.Membership() != m || moves != 0 {
		t.Fatalf("same-epoch republish replaced the membership (moves=%d)", moves)
	}
	_, targets := v.snapshot("")
	want := map[string]string{"a": "http://a", "b": "http://b2", "c": "http://c-local"}
	if !reflect.DeepEqual(targets, want) {
		t.Fatalf("targets = %v, want %v (pinned c wins)", targets, want)
	}
	if live, skipped := v.skipDown([]string{"a", "b"}); len(live) != 1 || live[0] != "b" || len(skipped) != 1 {
		t.Fatalf("live = %v skipped = %v, want only the moved shard b cleared", live, skipped)
	}
	// An older epoch is ignored outright, URLs included.
	old, err := At(m.Epoch-1, m.Members(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Adopt(old, map[string]string{"a": "http://a-old"}); err != nil {
		t.Fatal(err)
	}
	if _, targets := v.snapshot(""); targets["a"] != "http://a" {
		t.Fatalf("stale epoch rewrote a's URL to %s", targets["a"])
	}
}

// TestSweepOutcomes drives the sweep's decision table: one row per Outcome
// the owner's attempt returns, with every other candidate ready to serve.
func TestSweepOutcomes(t *testing.T) {
	errAdmin := errors.New("no such group")
	const group = "team-x"
	cases := []struct {
		name      string
		first     Outcome
		wantCalls func(stale []string) []string
		wantErr   error
		wantDown  bool
	}{
		{"served", Served, func(s []string) []string { return s[:1] }, nil, false},
		{"miss", Miss, func(s []string) []string { return s[:2] }, nil, false},
		{"down", Down, func(s []string) []string { return s[:2] }, nil, true},
		// The retry goes to the owner under the NEW epoch, never to the
		// next candidate of the stale list.
		{"fenced", Fenced, func(s []string) []string { return []string{s[0], "d"} }, nil, false},
		{"answered", Answered, func(s []string) []string { return s[:1] }, errAdmin, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			store := storage.NewMemStore(storage.Latency{})
			v, m := testView(t)
			v.SetStore(store)
			// The store already holds the truth the fenced shard proves:
			// epoch 2 moved every group to the new member d.
			next, err := At(m.Epoch+1, []string{"d"}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := Publish(ctx, store, RecordOf(next, map[string]string{"d": "http://d"}), 0); err != nil {
				t.Fatal(err)
			}
			stale := m.Owners(group)
			var calls []string
			err = v.Sweep(ctx, group, 5*time.Second, time.Millisecond, func(_ context.Context, shard, url string, preferred bool) (Outcome, error) {
				if url != "http://"+shard {
					t.Errorf("attempt on %s dialled %s", shard, url)
				}
				if preferred != (len(calls) == 0 || shard == "d") {
					t.Errorf("attempt on %s: preferred = %v", shard, preferred)
				}
				calls = append(calls, shard)
				if len(calls) > 1 || tc.first == Served {
					return Served, nil
				}
				if tc.first == Answered {
					return Answered, errAdmin
				}
				return tc.first, errors.New(tc.name)
			}, nil)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
				t.Fatalf("Sweep = %v, want %v", err, tc.wantErr)
			}
			if want := tc.wantCalls(stale); !reflect.DeepEqual(calls, want) {
				t.Fatalf("attempts = %v, want %v", calls, want)
			}
			if _, skipped := v.skipDown(stale); (len(skipped) == 1 && skipped[0] == stale[0]) != tc.wantDown {
				t.Fatalf("cached down after the sweep: %v, want owner down = %v", skipped, tc.wantDown)
			}
		})
	}
}
