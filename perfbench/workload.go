package main

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/attest"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/pki"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// The cloud latency model is the one the repository's BENCH_*.json figures
// inject: a 5 ms mutation round trip and a 2 ms read round trip.
const (
	cloudPut = 5 * time.Millisecond
	cloudGet = 2 * time.Millisecond

	// capacity is the fixed partition size |p|: 2048 members make 16
	// partitions per group.
	capacity = 128
	// paramsName is the artifact-faithful pairing scale (128-byte group
	// elements).
	paramsName = "type-a-512"
	// waitTimeout bounds every wait on a membership call or the watcher.
	waitTimeout = 30 * time.Second
)

// spec is one workload's shape.
type spec struct {
	name    string
	groups  int
	members int
	// cloud selects the cloud latency model; otherwise the store is an
	// in-process MemStore with no injected latency.
	cloud bool
	// cluster drives a 2-shard cluster through its router over loopback
	// HTTP (CAS + fenced apply); otherwise one admin.Admin is called
	// directly (unconditional apply).
	cluster bool
	// pageBound is the per-group resident page bound (0 = unbounded).
	pageBound int
	// callers is the number of closed-loop administrators.
	callers    int
	revokeFrac float64
	// readsPerOp members re-derive the key after every op; readsPerRevoke
	// more after a revocation.
	readsPerOp, readsPerRevoke int
	// pool is the number of provisioned stable members per group: the
	// readers, plus the watcher when there is one. Revocations never pick
	// them.
	pool    int
	watcher bool
	// workers is each administrator's partition fan-out (0 = one per CPU).
	workers int
}

var specs = []spec{
	{name: "admin-local", groups: 4, members: 2048, callers: 1, revokeFrac: 0.3, readsPerRevoke: 1, pool: 4},
	{name: "admin-cloud", groups: 4, members: 2048, cloud: true, cluster: true, pageBound: 4, callers: 2, revokeFrac: 0.3, readsPerRevoke: 1, pool: 4, workers: 1},
	{name: "read-revoke", groups: 1, members: 2040, cloud: true, callers: 1, revokeFrac: 0.5, readsPerOp: 2, pool: 17, watcher: true, workers: 1},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// groupModel is the benchmark's own view of a group's membership: the op
// stream is generated from it, and the program's state is checked against
// it.
type groupModel struct {
	name    string
	members []string
	pos     map[string]int
	// pool lists the stable members; pool[0] is the watcher when the
	// workload has one, the rest are readers.
	pool   []string
	inPool map[string]bool
	fresh  int
	// key is the group key its members currently derive.
	key [kdf.KeySize]byte
}

func newGroupModel(name string, size, pool int, rng *mrand.Rand) *groupModel {
	g := &groupModel{name: name, pos: make(map[string]int, size), inPool: make(map[string]bool, pool)}
	for i := 0; i < size; i++ {
		g.add(fmt.Sprintf("%s-m%05d@bench", name, i))
	}
	for _, i := range rng.Perm(size)[:pool] {
		g.pool = append(g.pool, g.members[i])
		g.inPool[g.members[i]] = true
	}
	return g
}

func (g *groupModel) add(u string) {
	g.pos[u] = len(g.members)
	g.members = append(g.members, u)
}

func (g *groupModel) remove(u string) {
	i := g.pos[u]
	last := g.members[len(g.members)-1]
	g.members[i] = last
	g.pos[last] = i
	g.members = g.members[:len(g.members)-1]
	delete(g.pos, u)
}

// op is one generated membership operation plus the reads that follow it.
type op struct {
	group  *groupModel
	revoke bool
	user   string
	// readers index the group's reader list (pool minus the watcher).
	readers []int
}

// deckSize is the block over which the op mix is exact: every group draws
// its op kinds from shuffled decks of deckSize holding exactly
// revokeFrac·deckSize revocations, and callers visit their groups in
// shuffled rounds. Group sizes then follow the same path for every seed,
// and the mix does not drift between runs.
const deckSize = 10

// opStream generates one caller's ops. It depends only on the seed, so the
// same seed yields the same stream; the program sees only the ops.
type opStream struct {
	rng    *mrand.Rand
	groups []*groupModel
	sp     spec
	round  []*groupModel
	decks  map[*groupModel][]bool
}

func (s *opStream) next() op {
	if len(s.round) == 0 {
		for _, i := range s.rng.Perm(len(s.groups)) {
			s.round = append(s.round, s.groups[i])
		}
	}
	g := s.round[0]
	s.round = s.round[1:]
	if s.decks == nil {
		s.decks = make(map[*groupModel][]bool)
	}
	if len(s.decks[g]) == 0 {
		deck := make([]bool, deckSize)
		for i := 0; i < int(s.sp.revokeFrac*deckSize+0.5); i++ {
			deck[i] = true
		}
		s.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		s.decks[g] = deck
	}
	o := op{group: g, revoke: s.decks[g][0]}
	s.decks[g] = s.decks[g][1:]
	if o.revoke {
		for {
			u := g.members[s.rng.Intn(len(g.members))]
			if !g.inPool[u] {
				o.user = u
				break
			}
		}
		g.remove(o.user)
	} else {
		o.user = fmt.Sprintf("%s-n%06d@bench", g.name, g.fresh)
		g.fresh++
		g.add(o.user)
	}
	k := s.sp.readsPerOp
	if o.revoke {
		k += s.sp.readsPerRevoke
	}
	first := 0
	if s.sp.watcher {
		first = 1
	}
	o.readers = sample(s.rng, len(g.pool)-first, k)
	return o
}

// sample draws k distinct indices from [0, n).
func sample(rng *mrand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// lane is one closed-loop caller and the program state it drives: its
// groups, the admin path its ops take and the enclave that serves them.
type lane struct {
	idx    int
	groups []*groupModel
	add    func(ctx context.Context, group, user string) error
	remove func(ctx context.Context, group, user string) error
	mgr    *core.Manager
	encl   *enclave.IBBEEnclave
	// readers[group] are the stable members' clients, in pool order after
	// the watcher. They decrypt with the lane's own scheme, so its counters
	// hold this caller's reads only.
	readers    map[string][]*client.Client
	readScheme *ibbe.Scheme
}

// fixture is one fully set-up workload.
type fixture struct {
	sp     spec
	mem    *storage.MemStore
	rec    *recorder
	params *pairing.Params
	pk     *ibbe.PublicKey
	lanes  []*lane
	// checkScheme serves the eviction checks. No client shares a scheme
	// with an enclave, so the ibbe counters separate admin work from reads.
	checkScheme *ibbe.Scheme
	readStore   storage.Store
	watch       *watcher
	close       []func()
	// quiet keeps the check reads of one caller clear of the other
	// callers' ops: ops hold it shared, check reads exclusively, outside
	// every timed call. On two vCPUs a decrypt overlapping another
	// caller's enclave work runs about 1.8× slower, and how often that
	// happens changes from run to run.
	quiet sync.RWMutex
}

func (f *fixture) shutdown() {
	for i := len(f.close) - 1; i >= 0; i-- {
		f.close[i]()
	}
	f.close = nil
}

// wrap returns the store handle a component uses: the raw store when
// nothing observes it, the timing decorator otherwise.
func (f *fixture) wrap(h handle, extraPut time.Duration) storage.Store {
	if f.rec == nil && extraPut == 0 {
		return f.mem
	}
	return &tracedStore{inner: f.mem, rec: f.rec, handle: h, extraPut: extraPut}
}

// setup builds a workload from scratch: platform and enclave set-up with
// attestation, group creation, and provisioning of the stable members.
func setup(cfg config, sp spec, rec *recorder) (*fixture, error) {
	if cfg.members > 0 {
		sp.members = cfg.members
	}
	f := &fixture{sp: sp, rec: rec, params: pairing.TypeA512()}
	lat := storage.Latency{}
	extraPut := time.Duration(0)
	if sp.cloud {
		lat = storage.Latency{Put: cloudPut, Get: cloudGet}
		extraPut = cfg.cloudPutExtra
	}
	f.mem = storage.NewMemStore(lat)
	f.checkScheme = ibbe.NewScheme(f.params)
	f.readStore = f.wrap(handleRead, 0)

	rng := mrand.New(mrand.NewSource(cfg.seed))
	var err error
	if sp.cluster {
		err = f.setupCluster(cfg, rng, f.wrap(handleAdmin, extraPut))
	} else {
		err = f.setupLocal(cfg, rng, f.wrap(handleAdmin, extraPut))
	}
	if err != nil {
		f.shutdown()
		return nil, err
	}
	if err := f.provision(); err != nil {
		f.shutdown()
		return nil, err
	}
	for _, ln := range f.lanes {
		for _, g := range ln.groups {
			// An operation boundary: the peak-residency measurement starts
			// with the set-up's pins released.
			if err := ln.mgr.ResetGroupHighWater(g.name); err != nil {
				f.shutdown()
				return nil, err
			}
		}
	}
	return f, nil
}

// setupLocal wires one administrator the way ibbesgx.NewSystem does —
// platform, enclave set-up, IAS attestation and auditor certification,
// manager, certified op log — over the given store handle.
func (f *fixture) setupLocal(cfg config, rng *mrand.Rand, store storage.Store) error {
	platform, err := enclave.NewPlatform("perfbench-platform", rand.Reader)
	if err != nil {
		return err
	}
	ias, err := attest.NewIAS()
	if err != nil {
		return err
	}
	ias.RegisterPlatform(platform)
	encl, err := enclave.NewIBBEEnclave(platform, f.params)
	if err != nil {
		return err
	}
	if _, _, err := encl.EcallSetup(capacity); err != nil {
		return err
	}
	auditor, err := pki.NewAuditor(ias.PublicKey(), enclave.IBBEMeasurement())
	if err != nil {
		return err
	}
	if _, err := auditor.AttestAndCertify(ias, encl); err != nil {
		return err
	}
	mgr, err := core.NewManager(encl, capacity, cfg.seed)
	if err != nil {
		return err
	}
	if f.sp.workers > 0 {
		mgr.SetParallelism(f.sp.workers)
	}
	if f.sp.pageBound > 0 {
		mgr.SetMaxResidentPages(f.sp.pageBound)
	}
	opLog, err := core.NewOpLog()
	if err != nil {
		return err
	}
	adm := admin.New("perfbench-admin", mgr, store, opLog)
	f.pk = mgr.PublicKey()
	if f.rec != nil {
		encl.Scheme().Metrics = &ibbe.Metrics{}
		encl.Obs = f.rec.ecallHook(0)
	}
	ln := &lane{idx: 0, add: adm.AddUser, remove: adm.RemoveUser, mgr: mgr, encl: encl}
	groupLane := make(map[string]int)
	for i := 0; i < f.sp.groups; i++ {
		g := newGroupModel(fmt.Sprintf("%s-g%d", f.sp.name, i), f.sp.members, f.sp.pool, rng)
		ln.groups = append(ln.groups, g)
		groupLane[g.name] = 0
	}
	f.rec.setGroups(groupLane, 1)
	f.lanes = []*lane{ln}
	ctx := context.Background()
	for _, g := range ln.groups {
		if err := adm.CreateGroup(ctx, g.name, append([]string(nil), g.members...)); err != nil {
			return fmt.Errorf("creating %s: %w", g.name, err)
		}
	}
	return nil
}

// setupCluster builds a 2-shard cluster: every shard and the router served
// over loopback HTTP, callers driving the router through client.AdminAPI,
// group names mined so each shard owns the groups of exactly one caller.
func (f *fixture) setupCluster(cfg config, rng *mrand.Rand, store storage.Store) error {
	c, err := cluster.New(cluster.Options{
		Shards:           f.sp.callers,
		Capacity:         capacity,
		Params:           f.params,
		ParamsName:       paramsName,
		Store:            store,
		LeaseTTL:         time.Hour, // no lease expiry or renewal inside a run
		Seed:             cfg.seed,
		Workers:          f.sp.workers,
		MaxResidentPages: f.sp.pageBound,
	})
	if err != nil {
		return err
	}
	shards := c.Shards()
	laneOf := make(map[string]int, len(shards))
	for i, s := range shards {
		laneOf[s.ID] = i
	}
	perLane := f.sp.groups / len(shards)
	groupLane := make(map[string]int)
	byLane := make([][]string, len(shards))
	for cand := 0; len(groupLane) < f.sp.groups; cand++ {
		name := fmt.Sprintf("%s-g%02d", f.sp.name, cand)
		l := laneOf[c.Ring().Owner(name)]
		if len(byLane[l]) < perLane {
			byLane[l] = append(byLane[l], name)
			groupLane[name] = l
		}
	}
	f.rec.setGroups(groupLane, len(shards))

	transport := &http.Transport{MaxIdleConnsPerHost: 8}
	f.close = append(f.close, transport.CloseIdleConnections)
	httpc := &http.Client{Transport: transport}
	targets := make(map[string]string, len(shards))
	for _, s := range shards {
		srv := httptest.NewServer(f.rec.handler(spanShard, s))
		f.close = append(f.close, srv.Close)
		targets[s.ID] = srv.URL
	}
	rt, err := cluster.NewRouter(c.Membership(), targets)
	if err != nil {
		return err
	}
	rt.Client = httpc
	gw := httptest.NewServer(f.rec.handler(spanRouter, rt))
	f.close = append(f.close, gw.Close)
	api := client.NewAdminAPI(httpc, gw.URL)
	f.pk = shards[0].Admin.Manager().PublicKey()

	ctx := context.Background()
	for i, s := range shards {
		if f.rec != nil {
			s.Encl.Obs = f.rec.ecallHook(i)
		}
		ln := &lane{idx: i, add: api.AddUser, remove: api.RemoveUser, mgr: s.Admin.Manager(), encl: s.Encl}
		for _, name := range byLane[i] {
			g := newGroupModel(name, f.sp.members, f.sp.pool, rng)
			ln.groups = append(ln.groups, g)
			if err := api.CreateGroup(ctx, name, append([]string(nil), g.members...)); err != nil {
				return fmt.Errorf("creating %s: %w", name, err)
			}
		}
		f.lanes = append(f.lanes, ln)
	}
	return nil
}

// extract provisions a user key through the lane's enclave: an ECDH-wrapped,
// enclave-signed key, opened and verified as a user would.
func (f *fixture) extract(ln *lane, id string) (*ibbe.UserKey, error) {
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	prov, err := ln.encl.EcallExtractUserKey(id, priv.PublicKey())
	if err != nil {
		return nil, err
	}
	return prov.Open(ln.encl.Scheme(), ln.encl.IdentityPublicKey(), priv)
}

// provision gives every stable member its key and a client, derives each
// group's initial key (all readers must agree), and starts the watcher.
func (f *fixture) provision() error {
	ctx := context.Background()
	for _, ln := range f.lanes {
		ln.readers = make(map[string][]*client.Client)
		ln.readScheme = ibbe.NewScheme(f.params)
		if f.rec != nil {
			ln.readScheme.Metrics = &ibbe.Metrics{}
		}
		for _, g := range ln.groups {
			for i, id := range g.pool {
				uk, err := f.extract(ln, id)
				if err != nil {
					return err
				}
				if i == 0 && f.sp.watcher {
					w, err := startWatcher(f, id, uk, g.name)
					if err != nil {
						return err
					}
					f.watch = w
					g.key = w.key
					continue
				}
				cli, err := client.New(ln.readScheme, f.pk, id, uk, f.readStore, g.name)
				if err != nil {
					return err
				}
				gk, err := cli.Refresh(ctx)
				if err != nil {
					return fmt.Errorf("initial read by %s: %w", id, err)
				}
				if g.key != ([kdf.KeySize]byte{}) && g.key != gk {
					return fmt.Errorf("initial read by %s: key differs from the group's other members", id)
				}
				g.key = gk
				ln.readers[g.name] = append(ln.readers[g.name], cli)
			}
		}
	}
	return nil
}

// watcher is a stable member running client.Watch with its own record
// cache, wired as cmd/ibbe-client does.
type watcher struct {
	cli   *client.Client
	cache *client.RecordCache
	store *tracedStore

	mu      sync.Mutex
	key     [kdf.KeySize]byte
	at      time.Time
	changed chan struct{}
	err     error
}

func startWatcher(f *fixture, id string, uk *ibbe.UserKey, group string) (*watcher, error) {
	scheme := ibbe.NewScheme(f.params)
	w := &watcher{changed: make(chan struct{})}
	st := f.wrap(handleWatch, 0)
	if ts, ok := st.(*tracedStore); ok {
		w.store = ts
	}
	cli, err := client.New(scheme, f.pk, id, uk, st, group)
	if err != nil {
		return nil, err
	}
	w.cli = cli
	w.cache = client.NewRecordCache(st)
	cli.SetCache(w.cache)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := cli.Watch(ctx, func(gk [kdf.KeySize]byte) {
			w.mu.Lock()
			w.key, w.at = gk, time.Now()
			close(w.changed)
			w.changed = make(chan struct{})
			w.mu.Unlock()
		})
		if ctx.Err() == nil {
			w.mu.Lock()
			w.err = fmt.Errorf("watcher stopped: %w", err)
			close(w.changed)
			w.changed = make(chan struct{})
			w.mu.Unlock()
		}
	}()
	f.close = append(f.close, func() { cancel(); <-done })
	// Set-up ends once the watcher holds the current key.
	if _, _, err := w.waitChange([kdf.KeySize]byte{}, time.Now().Add(waitTimeout)); err != nil {
		return nil, err
	}
	return w, nil
}

// waitChange blocks until the watcher delivers a key other than old and
// returns it with its delivery time.
func (w *watcher) waitChange(old [kdf.KeySize]byte, deadline time.Time) ([kdf.KeySize]byte, time.Time, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		w.mu.Lock()
		key, at, ch, err := w.key, w.at, w.changed, w.err
		w.mu.Unlock()
		if err != nil {
			return key, at, err
		}
		if key != old {
			return key, at, nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return key, at, errors.New("watcher did not deliver a new key in time")
		}
	}
}

func (w *watcher) current() [kdf.KeySize]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.key
}

// storeBytes sums the objects in the lane's group directories, read from the
// raw store so no observer counts them.
func (f *fixture) storeBytes(ln *lane) (bytes, members int64, err error) {
	ctx := context.Background()
	for _, g := range ln.groups {
		names, err := f.mem.List(ctx, g.name)
		if err != nil {
			return 0, 0, err
		}
		for _, n := range names {
			b, err := f.mem.Get(ctx, g.name, n)
			if err != nil {
				return 0, 0, err
			}
			bytes += int64(len(b))
		}
		members += int64(len(g.members))
	}
	return bytes, members, nil
}

// checkMembers compares the program's member set of every group with the
// benchmark's model.
func (f *fixture) checkMembers(ln *lane) []string {
	var bad []string
	for _, g := range ln.groups {
		got, err := ln.mgr.Members(g.name)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: listing members: %v", g.name, err))
			continue
		}
		want := append([]string(nil), g.members...)
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			bad = append(bad, fmt.Sprintf("%s: program holds %d members, model %d", g.name, len(got), len(want)))
		}
	}
	return bad
}
