// Package client implements the user side of the end-to-end system
// (Fig. 5): it listens for group metadata changes with HTTP long polling at
// the group directory level, maintains a local cache of the user's own
// partition record, and derives the current group key on every change —
// entirely outside any enclave (users need no SGX).
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// Errors returned by the client.
var (
	// ErrEvicted reports that no partition record lists this user anymore —
	// the user was revoked from the group.
	ErrEvicted = errors.New("client: user is not a member of the group")
)

// Client is one user's view of one group. Safe for concurrent use.
type Client struct {
	dec   *core.Client
	store storage.Store
	group string

	mu sync.Mutex
	// cache of the user's partition (Fig. 5's client cache).
	partitionID string
	version     uint64
	gk          [kdf.KeySize]byte
	hasKey      bool
	// lastBlob is the raw record the current key was derived from; with a
	// record cache attached, an unchanged blob skips the IBBE decrypt.
	lastBlob []byte
	// decrypts counts group-key derivations (for experiment reporting).
	decrypts int64
	// cache, when set, serves record reads from memory (shared across the
	// group's readers) instead of hitting the store.
	cache *RecordCache
}

// New builds a client for a group with provisioned key material.
func New(scheme *ibbe.Scheme, pk *ibbe.PublicKey, id string, key *ibbe.UserKey, store storage.Store, group string) (*Client, error) {
	dec, err := core.NewClient(scheme, pk, id, key)
	if err != nil {
		return nil, err
	}
	return &Client{dec: dec, store: store, group: group}, nil
}

// ID returns the user identity.
func (c *Client) ID() string { return c.dec.ID() }

// Group returns the group name.
func (c *Client) Group() string { return c.group }

// SetCache attaches a shared RecordCache: partition-record reads go
// through it, so a crowd of readers on one version of a group costs the
// cloud one GET, and a refresh that finds the record unchanged skips the
// IBBE decrypt entirely.
func (c *Client) SetCache(cache *RecordCache) {
	c.mu.Lock()
	c.cache = cache
	c.mu.Unlock()
}

// getObject reads one group object, via the record cache when attached.
func (c *Client) getObject(ctx context.Context, name string) ([]byte, error) {
	c.mu.Lock()
	cache := c.cache
	c.mu.Unlock()
	if cache != nil {
		data, _, err := cache.Get(ctx, c.group, name)
		return data, err
	}
	return c.store.Get(ctx, c.group, name)
}

// Decrypts returns how many group-key derivations this client performed.
func (c *Client) Decrypts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decrypts
}

// GroupKey returns the cached group key, syncing first if the cache is
// empty. Use Refresh/Watch to chase updates.
func (c *Client) GroupKey(ctx context.Context) ([kdf.KeySize]byte, error) {
	c.mu.Lock()
	if c.hasKey {
		gk := c.gk
		c.mu.Unlock()
		return gk, nil
	}
	c.mu.Unlock()
	return c.Refresh(ctx)
}

// Refresh fetches the user's partition record from the cloud and re-derives
// the group key (the decrypt operation of Fig. 8b, preceded by the cloud
// round-trips the paper says dominate it).
func (c *Client) Refresh(ctx context.Context) ([kdf.KeySize]byte, error) {
	var zero [kdf.KeySize]byte
	rec, blob, err := c.fetchOwnRecord(ctx)
	if err != nil {
		return zero, err
	}
	c.mu.Lock()
	// With a record cache attached, byte-identical records mean the group
	// key cannot have changed — skip the pairing-heavy decrypt. (Without a
	// cache, every Refresh decrypts, preserving the paper's Fig. 8b
	// measurement semantics for the decrypts counter.)
	if c.cache != nil && c.hasKey && bytes.Equal(blob, c.lastBlob) {
		gk := c.gk
		c.mu.Unlock()
		return gk, nil
	}
	c.mu.Unlock()
	gk, err := c.dec.DecryptRecord(c.group, rec)
	if err != nil {
		return zero, fmt.Errorf("client: deriving group key: %w", err)
	}
	c.mu.Lock()
	c.partitionID = rec.PartitionID
	c.gk = gk
	c.hasKey = true
	c.lastBlob = blob
	c.decrypts++
	c.mu.Unlock()
	return gk, nil
}

// fetchOwnRecord gets the cached partition object if it still lists the
// user, and rescans the directory otherwise (partition moved or user was
// re-partitioned).
func (c *Client) fetchOwnRecord(ctx context.Context) (*core.PartitionRecord, []byte, error) {
	c.mu.Lock()
	cached := c.partitionID
	c.mu.Unlock()

	scheme := c.dec.Scheme()
	if cached != "" {
		if blob, err := c.getObject(ctx, cached); err == nil {
			rec, err := core.UnmarshalRecord(scheme, blob)
			if err == nil && rec.ContainsMember(c.ID()) {
				return rec, blob, nil
			}
		}
	}
	// Full rescan of the group directory.
	names, err := c.store.List(ctx, c.group)
	if err != nil {
		return nil, nil, fmt.Errorf("client: listing group: %w", err)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "_") {
			continue // reserved objects (sealed group key, catalogs)
		}
		blob, err := c.getObject(ctx, name)
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				continue // deleted between list and get
			}
			return nil, nil, err
		}
		rec, err := core.UnmarshalRecord(scheme, blob)
		if err != nil {
			return nil, nil, err
		}
		if rec.ContainsMember(c.ID()) {
			return rec, blob, nil
		}
	}
	return nil, nil, fmt.Errorf("%w: %s in %s", ErrEvicted, c.ID(), c.group)
}

// Watch long-polls the group directory and invokes fn with every newly
// derived group key, starting with the current one. It returns when ctx
// ends or the user is revoked (ErrEvicted).
func (c *Client) Watch(ctx context.Context, fn func(gk [kdf.KeySize]byte)) error {
	// The baseline version is read before the first Refresh: a change
	// committed between that Refresh (or during fn) and the first Poll then
	// still wakes the loop instead of being folded into the baseline.
	c.mu.Lock()
	since := c.version
	c.mu.Unlock()
	if since == 0 {
		v, err := c.store.Version(ctx, c.group)
		if err != nil {
			return err
		}
		since = v
	}
	gk, err := c.Refresh(ctx)
	if err != nil {
		return err
	}
	fn(gk)
	for {
		v, err := c.store.Poll(ctx, c.group, since)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return fmt.Errorf("client: polling: %w", err)
		}
		since = v
		c.mu.Lock()
		c.version = v
		cache := c.cache
		c.mu.Unlock()
		if cache != nil {
			// Feed the poll-observed directory version to the cache: entries
			// older than v stop being served, so the Refresh below (and every
			// co-located reader sharing the cache) sees post-change records.
			cache.ObserveVersion(c.group, v)
		}
		newGK, err := c.Refresh(ctx)
		if err != nil {
			return err
		}
		if newGK != gk {
			gk = newGK
			fn(gk)
		}
	}
}
