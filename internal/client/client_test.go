package client

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// rig wires a manager and a store without the admin frontend, so the tests
// can publish records selectively and inject faults.
type rig struct {
	encl  *enclave.IBBEEnclave
	mgr   *core.Manager
	store *storage.MemStore
}

func newRig(t *testing.T, capacity int) *rig {
	t.Helper()
	platform, err := enclave.NewPlatform("p", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := enclave.NewIBBEEnclave(platform, pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ie.EcallSetup(capacity); err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(ie, capacity, 5)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{encl: ie, mgr: mgr, store: storage.NewMemStore(storage.Latency{})}
}

// publish pushes an update's records to the store.
func (r *rig) publish(t *testing.T, up *core.Update) {
	t.Helper()
	ctx := context.Background()
	for _, id := range up.Delete {
		if err := r.store.Delete(ctx, up.Group, id); err != nil {
			t.Fatal(err)
		}
	}
	for id, rec := range up.Put {
		blob, err := rec.Marshal(r.mgr.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.store.Put(ctx, up.Group, id, blob); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *rig) clientFor(t *testing.T, id, group string) *Client {
	t.Helper()
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := r.encl.EcallExtractUserKey(id, priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	uk, err := prov.Open(r.encl.Scheme(), r.encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(r.encl.Scheme(), r.mgr.PublicKey(), id, uk, r.store, group)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func users(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%02d@example.com", i)
	}
	return out
}

func TestNewRejectsNilMaterial(t *testing.T) {
	r := newRig(t, 2)
	if _, err := New(nil, nil, "x", nil, r.store, "g"); err == nil {
		t.Fatal("nil material accepted")
	}
}

func TestGroupKeyCachesAfterFirstDerivation(t *testing.T) {
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(2)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Decrypts() != 1 {
		t.Fatalf("decrypts = %d", c.Decrypts())
	}
	// Second GroupKey hits the cache: no new derivation, no store reads.
	gets := r.store.Stats().Gets
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Decrypts() != 1 {
		t.Fatal("cached GroupKey re-derived")
	}
	if r.store.Stats().Gets != gets {
		t.Fatal("cached GroupKey touched the store")
	}
}

func TestRefreshSurvivesPartitionMove(t *testing.T) {
	// After a re-partition the user's cached partition object disappears;
	// Refresh must rescan and find the new one.
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(6)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[5], "g")
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	up2, err := r.mgr.Repartition("g")
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up2)
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatalf("refresh after repartition: %v", err)
	}
}

func TestRefreshEvictedAfterRecordsGone(t *testing.T) {
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(2)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	up2, err := r.mgr.RemoveUser("g", members[0])
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up2)
	if _, err := c.Refresh(ctx); !errors.Is(err, ErrEvicted) {
		t.Fatalf("got %v, want ErrEvicted", err)
	}
}

func TestRefreshFailsOnCorruptRecord(t *testing.T) {
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(2)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	// Overwrite the only record with garbage.
	names, _ := r.store.List(ctx, "g")
	if err := r.store.Put(ctx, "g", names[0], []byte("not a record")); err != nil {
		t.Fatal(err)
	}
	c := r.clientFor(t, members[0], "g")
	if _, err := c.Refresh(ctx); err == nil {
		t.Fatal("corrupt record accepted")
	}
}

func TestRefreshSkipsForeignPartitions(t *testing.T) {
	// The client must find its own partition among several.
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(8) // four partitions
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[7], "g")
	gk, err := c.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gk == [kdf.KeySize]byte{} {
		t.Fatal("zero key")
	}
}

func TestWatchSeesRotationAndStops(t *testing.T) {
	r := newRig(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	members := users(4)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")

	var (
		mu   sync.Mutex
		keys [][kdf.KeySize]byte
	)
	done := make(chan error, 1)
	go func() {
		done <- c.Watch(ctx, func(gk [kdf.KeySize]byte) {
			mu.Lock()
			keys = append(keys, gk)
			mu.Unlock()
		})
	}()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(keys) >= 1 })

	up2, err := r.mgr.RekeyGroup("g")
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up2)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(keys) >= 2 })

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("watch exit: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if keys[0] == keys[1] {
		t.Fatal("rotation delivered identical keys")
	}
}

// TestWatchEndsWhenRevokedDuringFirstCallback revokes the watcher inside
// its first callback, before the first Poll: the removal must still wake
// the loop and end the watch with ErrEvicted, not hang until the deadline.
func TestWatchEndsWhenRevokedDuringFirstCallback(t *testing.T) {
	r := newRig(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	members := users(4)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")

	calls := 0
	err = c.Watch(ctx, func([kdf.KeySize]byte) {
		calls++
		if calls > 1 {
			return
		}
		up, err := r.mgr.RemoveUser("g", members[0])
		if err != nil {
			t.Error(err)
			return
		}
		r.publish(t, up)
	})
	if !errors.Is(err, ErrEvicted) {
		t.Fatalf("watch exit after revocation: %v, want ErrEvicted", err)
	}
}

func TestWatchSuppressesNoOpUpdates(t *testing.T) {
	// An add to another partition changes the directory version but not
	// this user's key; Watch must not re-deliver the same key.
	r := newRig(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	members := users(2)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")

	var (
		mu    sync.Mutex
		calls int
	)
	go func() {
		_ = c.Watch(ctx, func([kdf.KeySize]byte) {
			mu.Lock()
			calls++
			mu.Unlock()
		})
	}()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return calls >= 1 })

	// Add a user (key unchanged) and let the watcher churn.
	up2, err := r.mgr.AddUser("g", "latecomer@example.com")
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up2)
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("no-op update delivered %d callbacks, want 1", calls)
	}
}

func TestAccessorsAndIdentity(t *testing.T) {
	r := newRig(t, 2)
	members := users(1)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")
	if c.ID() != members[0] || c.Group() != "g" {
		t.Fatalf("accessors: %s %s", c.ID(), c.Group())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
