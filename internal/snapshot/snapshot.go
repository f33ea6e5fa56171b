// Package snapshot implements the resilient in-memory store behind GML's
// Snapshottable interface (paper section IV-B). A Snapshot holds key/value
// pairs placed by a configurable redundancy policy (apgas.StorePolicy).
// The paper-faithful default is *double storage*: each entry is kept at
// the place that saved it and at the next place of the snapshot-time
// place group, so the loss of any single place leaves every entry
// recoverable. Saving costs the same from every place (one local put plus
// one remote put); loading is cheap when the data is local and costs a
// transfer otherwise — exactly the cost asymmetry the paper describes.
//
// Beyond the default, the placement layer generalizes to replication
// factor k (k full copies at k consecutive group slots, tolerating k-1
// failures between checkpoints) and to a Reed-Solomon erasure-coded mode
// (d data + p parity shards at d+p consecutive slots, tolerating p
// failures at (d+p)/d storage — the ReStore cost model). Entries that
// fall below their target redundancy — a backup put dropped after retry
// exhaustion, a replica place killed, a partial-spare replacement — are
// tracked in a degraded set (exported as the snapshot.replicas.degraded
// gauge) and re-replicated by Repair, which the application store runs
// at every checkpoint commit and after a restore; after a replacement,
// Repair also moves the dead place's slot onto the place that took over.
//
// The save path is built for throughput: the backup put runs as an async
// task overlapping the saver's remaining work (the enclosing finish still
// guarantees it lands before the checkpoint is considered taken), entries
// saved through SaveEncoded carry a CRC-32C computed chunk by chunk as the
// encoder writes them, while each chunk is still in cache, instead of a
// separate hashing traversal, successful verifications are
// memoized per entry so repeated loads do not re-hash, and payload buffers
// plus per-place stores are recycled through pools when a superseded
// checkpoint is destroyed.
package snapshot

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/obs"
)

// Snapshottable is implemented by every GML object that can be saved to
// and restored from a Snapshot (paper Listing 3).
type Snapshottable interface {
	// MakeSnapshot captures the object's distributed state into a new
	// Snapshot.
	MakeSnapshot() (*Snapshot, error)
	// RestoreSnapshot re-populates the object (over its *current* place
	// group and partitioning, which may differ from the snapshot's) from
	// the saved state. A fragment whose storage survived the preceding
	// Remake at the same place (its Retained flag) is kept when it
	// validates against the snapshot digest; every other fragment is
	// loaded from the store. With no retained state, on a regrid or a
	// group mismatch, everything is loaded.
	RestoreSnapshot(s *Snapshot) error
}

// ErrDataLost reports that an entry's surviving redundancy is below what
// reconstruction needs: every replica lost (replication), or fewer than d
// shards left (erasure). A policy tolerating f failures survives any f
// place deaths between checkpoints, but not f+1 — and a degraded entry
// (a dropped backup put that repair has not yet healed) tolerates
// correspondingly less.
var ErrDataLost = errors.New("snapshot: entry lost (insufficient surviving replicas)")

// ErrNotFound reports that an entry was never saved under the given key.
var ErrNotFound = errors.New("snapshot: no entry for key")

// ErrCorrupt reports that an entry failed its integrity check. Load skips
// corrupt replicas and falls back to the other copy, so a single corrupted
// replica is recoverable just like a failed place.
var ErrCorrupt = errors.New("snapshot: entry failed integrity check")

// The bounded retry applied to a backup (replica) put when the runtime's
// fault injector reports a transient write failure: replicaAttempts puts
// in all, the first retry after replicaBackoff, doubling, each wait capped
// at replicaAttemptCap so a hostile injector cannot stall a checkpoint. A
// put that still fails degrades to an owner-only entry (counted as
// snapshot.replicas.dropped) rather than failing the checkpoint: a missing
// backup only matters if the owner also dies before the next checkpoint.
const (
	replicaAttempts   = 4
	replicaBackoff    = 200 * time.Microsecond
	replicaAttemptCap = 25 * time.Millisecond
)

// entry is one stored value plus its integrity checksum, computed at save
// time so a corrupted replica is detected at load time and the other copy
// used instead. The owner and backup replicas share one entry (the
// emulation's two map slots point at the same bytes), so the flags below
// use atomics. An entry belongs to exactly one snapshot, whose Destroy
// recycles its buffer.
type entry struct {
	data []byte
	sum  uint32
	// pooled marks data as drawn from the codec buffer pool; Destroy
	// recycles it instead of dropping it.
	pooled bool
	// owner is the group index of the place that saved the entry, set
	// before the entry is published to any store; repair uses it to
	// recompute the entry's slot set.
	owner int
	// shardIdx and set are the erasure-mode identity: which of the d+p
	// shards this entry holds, and the shared descriptor of the full
	// payload the shard set reassembles. Both are zero/nil for full
	// replicas.
	shardIdx int
	set      *shardSet
	// verified memoizes a successful integrity check so repeated loads of
	// the same replica skip re-hashing. Corruption tests swap the whole
	// entry, so a memoized verdict never outlives the bytes it vouches
	// for.
	verified atomic.Bool
}

// shardSet is the shared descriptor of one erasure-coded payload: the
// full payload's checksum and length (what Digest reports and Load
// verifies after reassembly). All d+p shard entries of one save point at
// the same shardSet.
type shardSet struct {
	fullSum uint32
	fullLen int
}

func newEntry(data []byte, sum uint32, pooled bool) *entry {
	return &entry{data: data, sum: sum, pooled: pooled}
}

// verify checks the entry's integrity, memoizing success.
func (e *entry) verify() bool {
	if e.verified.Load() {
		return true
	}
	if codec.Checksum(e.data) != e.sum {
		return false
	}
	e.verified.Store(true)
	return true
}

// placeStore is one place's fragment of a Snapshot. Concurrent savers
// (neighbouring places writing their backups) share it, hence the lock.
type placeStore struct {
	mu      sync.Mutex
	entries map[int]*entry
}

func (ps *placeStore) put(key int, e *entry) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.entries[key] = e
}

func (ps *placeStore) get(key int) (*entry, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	e, ok := ps.entries[key]
	return e, ok
}

// bytes sums the stored payload sizes.
func (ps *placeStore) bytes() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, e := range ps.entries {
		n += len(e.data)
	}
	return n
}

// storePool recycles placeStore shells (and their cleared maps) across
// checkpoints, alongside the payload buffer pool.
var storePool sync.Pool

func getPlaceStore() (ps *placeStore, pooled bool) {
	if v, _ := storePool.Get().(*placeStore); v != nil {
		return v, true
	}
	return &placeStore{entries: make(map[int]*entry, 4)}, false
}

// recycle clears the store and returns the shell to the store pool.
// Payload release is not done here: the owner and backup slots of one
// snapshot share entries, so Snapshot.Destroy recycles each distinct
// entry's buffer exactly once.
func (ps *placeStore) recycle() {
	ps.mu.Lock()
	clear(ps.entries)
	ps.mu.Unlock()
	storePool.Put(ps)
}

// distinctEntries appends the store's entries to seen, deduplicating by
// pointer (the owner and backup slots of one snapshot share entries).
func (ps *placeStore) distinctEntries(seen map[*entry]struct{}) {
	ps.mu.Lock()
	for _, e := range ps.entries {
		seen[e] = struct{}{}
	}
	ps.mu.Unlock()
}

// Snapshot is a resilient key/value capture of one GML object's state.
// Keys are small integers chosen by the object (place indices for
// duplicated/segmented objects, block IDs for block matrices); values are
// serialized fragments. The descriptor (Meta) travels with the Snapshot
// struct itself, which lives on the immortal place zero alongside the
// application store.
type Snapshot struct {
	rt *apgas.Runtime
	pg apgas.PlaceGroup
	// pol is the redundancy policy resolved against pg (defaults applied,
	// width clamped to the group size).
	pol policy
	plh apgas.PlaceLocalHandle[*placeStore]
	// stores aliases the per-place stores by group index for Destroy-time
	// recycling (mirroring PlaceLocalHandle.Destroy's direct teardown).
	stores    []*placeStore
	meta      []byte
	destroyed atomic.Bool
	instr     snapInstr
	// deg tracks entries below target redundancy and the extra holder
	// slots repair placed them at (see repair.go).
	deg degradedState
	// censusDead is how many group members were dead when Repair last
	// walked every entry; a further death is what makes the next walk
	// worth its cost.
	censusDead int
}

// degradedState is the snapshot's redundancy-loss bookkeeping: which keys
// are below their target redundancy (reflected in the
// snapshot.replicas.degraded gauge), and which non-base slots hold
// repaired copies or shards (consulted by Load, Digest and Repair).
type degradedState struct {
	mu sync.Mutex
	// keys maps a degraded key to its owner's group index.
	keys map[int]int
	// extras maps a key to repair-holder group indices beyond its base
	// slot set.
	extras map[int][]int
}

// noteDegraded records that key (owned by ownerIdx) is below target
// redundancy, bumping the degraded gauge on the first report.
func (s *Snapshot) noteDegraded(key, ownerIdx int) {
	s.deg.mu.Lock()
	defer s.deg.mu.Unlock()
	if _, ok := s.deg.keys[key]; ok {
		return
	}
	if s.deg.keys == nil {
		s.deg.keys = make(map[int]int)
	}
	s.deg.keys[key] = ownerIdx
	s.instr.degradedG.Add(1)
	s.rt.Obs().Trace("snapshot.replica.degraded", int64(key), int64(ownerIdx))
}

// clearDegraded removes key from the degraded set (after a successful
// repair), decrementing the gauge if it was present.
func (s *Snapshot) clearDegraded(key int) {
	s.deg.mu.Lock()
	defer s.deg.mu.Unlock()
	if _, ok := s.deg.keys[key]; !ok {
		return
	}
	delete(s.deg.keys, key)
	s.instr.degradedG.Add(-1)
}

// isDegraded reports whether key is currently tracked as degraded.
func (s *Snapshot) isDegraded(key int) bool {
	s.deg.mu.Lock()
	defer s.deg.mu.Unlock()
	_, ok := s.deg.keys[key]
	return ok
}

// DegradedEntries returns how many entries are tracked below their target
// redundancy (the snapshot's contribution to the
// snapshot.replicas.degraded gauge).
func (s *Snapshot) DegradedEntries() int {
	s.deg.mu.Lock()
	defer s.deg.mu.Unlock()
	return len(s.deg.keys)
}

// setExtras records the repair-holder group indices for key.
func (s *Snapshot) setExtras(key int, extras []int) {
	s.deg.mu.Lock()
	defer s.deg.mu.Unlock()
	if len(extras) == 0 {
		delete(s.deg.extras, key)
		return
	}
	if s.deg.extras == nil {
		s.deg.extras = make(map[int][]int)
	}
	s.deg.extras[key] = extras
}

// snapInstr holds the snapshot layer's observability handles, resolved
// from the runtime's registry at snapshot creation. All handles are
// nil-safe, so an uninstrumented runtime pays one branch per update.
type snapInstr struct {
	saves       *obs.Counter // snapshot.saves
	saveBytes   *obs.Counter // snapshot.save.bytes
	replicas    *obs.Counter // snapshot.replicas.placed (backup puts)
	backupBytes *obs.Counter // snapshot.replicas.bytes
	loads       *obs.Counter // snapshot.loads
	loadLocal   *obs.Counter // snapshot.load.local
	loadRemote  *obs.Counter // snapshot.load.remote
	loadBytes   *obs.Counter // snapshot.load.bytes
	crcFailures *obs.Counter // snapshot.crc.failures
	retries     *obs.Counter // snapshot.replicas.retries (re-attempted backup puts)
	dropped     *obs.Counter // snapshot.replicas.dropped (degraded to owner-only)
	fallbacks   *obs.Counter // snapshot.replica.fallbacks
	lost        *obs.Counter // snapshot.entries.lost
	poolHits    *obs.Counter // snapshot.pool.hits
	poolMisses  *obs.Counter // snapshot.pool.misses
	destroys    *obs.Counter // snapshot.destroys

	// Survivor validation on restore.
	digests *obs.Counter // snapshot.digests (metadata-only integrity probes)

	// Redundancy degradation and repair.
	degradedG *obs.Gauge   // snapshot.replicas.degraded (entries below target, now)
	repaired  *obs.Counter // snapshot.replicas.repaired (entries healed by Repair)
	rehomed   *obs.Counter // snapshot.slots.rehomed (dead slots moved onto a replacement place)
	censuses  *obs.Counter // snapshot.repair.censuses (Repair walks over every entry)
	shards    *obs.Counter // snapshot.shards.placed (erasure shard puts)
	rebuilds  *obs.Counter // snapshot.shards.rebuilt (erasure reconstructions on load)

	// Checkpoint compression.
	compIn    *obs.Counter // snapshot.compress.bytes_in (raw payload bytes)
	compOut   *obs.Counter // snapshot.compress.bytes_out (compressed frame bytes)
	compRatio *obs.Gauge   // snapshot.compress.ratio (cumulative out/in, permille)
	compTime  *obs.Counter // snapshot.compress.time_us (encode time inside compressed saves)
	lossyErrG *obs.Gauge   // snapshot.lossy.max_err (largest per-element error, femto units)

	// encode times each fragment encode on the SaveEncoded path, so a
	// registry dump shows how much of a checkpoint is encode + CRC time.
	encode *obs.Histogram // snapshot.save.encode
}

func newSnapInstr(reg *obs.Registry) snapInstr {
	return snapInstr{
		saves:       reg.Counter("snapshot.saves"),
		saveBytes:   reg.Counter("snapshot.save.bytes"),
		replicas:    reg.Counter("snapshot.replicas.placed"),
		backupBytes: reg.Counter("snapshot.replicas.bytes"),
		loads:       reg.Counter("snapshot.loads"),
		loadLocal:   reg.Counter("snapshot.load.local"),
		loadRemote:  reg.Counter("snapshot.load.remote"),
		loadBytes:   reg.Counter("snapshot.load.bytes"),
		crcFailures: reg.Counter("snapshot.crc.failures"),
		retries:     reg.Counter("snapshot.replicas.retries"),
		dropped:     reg.Counter("snapshot.replicas.dropped"),
		fallbacks:   reg.Counter("snapshot.replica.fallbacks"),
		lost:        reg.Counter("snapshot.entries.lost"),
		poolHits:    reg.Counter("snapshot.pool.hits"),
		poolMisses:  reg.Counter("snapshot.pool.misses"),
		destroys:    reg.Counter("snapshot.destroys"),

		digests: reg.Counter("snapshot.digests"),

		degradedG: reg.Gauge("snapshot.replicas.degraded"),
		repaired:  reg.Counter("snapshot.replicas.repaired"),
		rehomed:   reg.Counter("snapshot.slots.rehomed"),
		censuses:  reg.Counter("snapshot.repair.censuses"),
		shards:    reg.Counter("snapshot.shards.placed"),
		rebuilds:  reg.Counter("snapshot.shards.rebuilt"),

		compIn:    reg.Counter("snapshot.compress.bytes_in"),
		compOut:   reg.Counter("snapshot.compress.bytes_out"),
		compRatio: reg.Gauge("snapshot.compress.ratio"),
		compTime:  reg.Counter("snapshot.compress.time_us"),
		lossyErrG: reg.Gauge("snapshot.lossy.max_err"),

		encode: reg.Histogram("snapshot.save.encode"),
	}
}

// New allocates an empty snapshot whose storage is distributed over pg,
// under the runtime's redundancy policy (apgas.Config.Store).
func New(rt *apgas.Runtime, pg apgas.PlaceGroup) (*Snapshot, error) {
	if pg.Size() == 0 {
		return nil, errors.New("snapshot: empty place group")
	}
	s := &Snapshot{rt: rt, pg: pg.Clone(), instr: newSnapInstr(rt.Obs())}
	s.stores = make([]*placeStore, pg.Size())
	plh, err := apgas.NewPlaceLocalHandle(rt, pg, func(ctx *apgas.Ctx, idx int) *placeStore {
		ps := s.newPlaceStore()
		s.stores[idx] = ps
		return ps
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: allocating stores: %w", err)
	}
	s.plh = plh
	s.pol = resolvePolicy(rt, pg.Size())
	return s, nil
}

// newPlaceStore takes an empty place store from the store pool, counting
// the pool hit or miss.
func (s *Snapshot) newPlaceStore() *placeStore {
	ps, pooled := getPlaceStore()
	if pooled {
		s.instr.poolHits.Inc()
	} else {
		s.instr.poolMisses.Inc()
	}
	return ps
}

// Group returns the snapshot's place group: the one it was taken over,
// with each dead slot Repair moved replaced by its new place.
func (s *Snapshot) Group() apgas.PlaceGroup { return s.pg }

// SetMeta attaches the object descriptor (e.g. its serialized grid and
// distribution) to the snapshot.
func (s *Snapshot) SetMeta(meta []byte) { s.meta = meta }

// Meta returns the attached descriptor.
func (s *Snapshot) Meta() []byte { return s.meta }

// NoteCompression records one compressed save: rawBytes is the payload's
// legacy fixed-width size, compBytes the bytes actually emitted, and d the
// encode (compress + checksum) time. The ratio gauge tracks the cumulative
// shipped/raw proportion in permille, so a registry dump shows at a glance
// how much the compression stage is buying.
func (s *Snapshot) NoteCompression(rawBytes, compBytes int, d time.Duration) {
	in := s.instr.compIn
	in.Add(int64(rawBytes))
	s.instr.compOut.Add(int64(compBytes))
	s.instr.compTime.Add(d.Microseconds())
	if total := in.Value(); total > 0 {
		s.instr.compRatio.Set(s.instr.compOut.Value() * 1000 / total)
	}
}

// NoteLossyMaxError publishes the largest per-element reconstruction
// error the lossy codec has introduced so far, in femto units (1e-15), so
// the bounded quantity survives the registry's integer gauges. Errors
// beyond the gauge's range clamp to MaxInt64.
func (s *Snapshot) NoteLossyMaxError(maxErr float64) {
	if maxErr <= 0 {
		return
	}
	femto := maxErr * 1e15
	v := int64(math.MaxInt64)
	if femto < math.MaxInt64 {
		v = int64(femto)
	}
	if v > s.instr.lossyErrG.Value() {
		s.instr.lossyErrG.Set(v)
	}
}

// Save stores data under key with the snapshot's redundancy policy: a
// local copy at the calling task's place plus k-1 backups at the next
// places of the snapshot group (replication), or d+p Reed-Solomon shards
// across d+p consecutive places (erasure). It must be called from a task
// running at a member of the group (each place saves its own portion, as
// in the paper). A CRC-32C checksum is computed at save time and
// verified on every load, so silent corruption of one replica degrades
// into the same recovery path as a failed place. Under replication the
// byte slice is retained; callers must not mutate it afterwards.
func (s *Snapshot) Save(ctx *apgas.Ctx, key int, data []byte) {
	if s.pol.erasure {
		s.saveErasure(ctx, key, data, codec.Checksum(data), false)
		return
	}
	s.save(ctx, key, newEntry(data, codec.Checksum(data), false))
}

// SaveEncoded stores the value for key like Save, but the payload is
// produced by encode into a pooled buffer through a codec.Encoder, which
// checksums each bulk chunk right after writing it, so the CRC-32C reads
// bytes still in cache instead of re-reading the payload from memory; the
// encode's duration is observed in the snapshot.save.encode histogram.
// The snapshot takes ownership of that buffer: under replication it is
// recycled when the snapshot is destroyed, under erasure immediately
// after sharding.
func (s *Snapshot) SaveEncoded(ctx *apgas.Ctx, key int, encode func() *codec.Encoder) {
	start := time.Now()
	enc := encode()
	s.instr.encode.Observe(time.Since(start))
	if s.pol.erasure {
		s.saveErasure(ctx, key, enc.Bytes(), enc.Sum(), true)
		return
	}
	s.save(ctx, key, newEntry(enc.Bytes(), enc.Sum(), true))
}

// save places e locally and asynchronously at the k-1 replica places. The
// replica puts overlap the saver's remaining work (encoding of its next
// block); the enclosing finish waits for them, so the checkpoint's
// completion still implies every replica is in place. apgas.net.* counts
// them identically to synchronous puts: one payload transfer per replica
// place.
func (s *Snapshot) save(ctx *apgas.Ctx, key int, e *entry) {
	idx := s.pg.IndexOf(ctx.Here)
	if idx < 0 {
		panic(fmt.Sprintf("snapshot: Save from %v, not a member of %v", ctx.Here, s.pg))
	}
	e.owner = idx
	s.plh.Local(ctx).put(key, e)
	s.instr.saves.Inc()
	s.instr.saveBytes.Add(int64(len(e.data)))
	for i := 1; i < s.pol.k; i++ {
		next := s.pg[s.slotOf(idx, i)]
		s.instr.replicas.Inc()
		s.instr.backupBytes.Add(int64(len(e.data)))
		// Where the replica place has a worker body the payload rides a
		// forced kernel put into it (warmReplica), so the spawn message
		// carries no bytes; where it has none there is no wire to carry
		// them over. TransferSnapshot counts the full declared size in
		// apgas.net.* against the snapshot class either way, so those
		// counts do not depend on the backend.
		ctx.TransferSnapshot(next, len(e.data))
		ctx.AsyncAt(next, func(c *apgas.Ctx) {
			s.warmReplica(c, key, e)
			s.putReplica(c, key, e, idx)
		})
	}
}

// warmReplica force-installs a replica's bytes into the executing place's
// worker body so later kernels (and a future worker-side restore) can
// reference them without a re-ship. Each Snapshot has its own
// PlaceLocalHandle — handle IDs are never reused — and each key is written
// once per snapshot, so a constant version suffices. The bytes go out
// straight from the snapshot's own pooled
// buffer, which stays the snapshot's: the worker drops its copy when the
// snapshot's handle is destroyed. At place zero there is no worker body
// and nothing to warm. Failures are ignored; the warm is purely a cache
// fill.
func (s *Snapshot) warmReplica(c *apgas.Ctx, key int, e *entry) {
	if !c.WorkerBody() {
		return
	}
	t := &kernel.Task{Name: kernel.PutName, Puts: []kernel.Blob{{
		Handle: s.plh.Handle(),
		Key:    int64(key),
		Ver:    1,
		Data:   e.data,
	}}}
	_, _ = c.ExecKernel(t)
}

// putReplica lands a replica (or shard) copy at the task's place,
// retrying with doubling backoff when the runtime's fault injector
// reports a transient write failure (the chaos engine's flake rules).
// With no injector installed the first attempt costs one atomic load and
// succeeds, so the checkpoint fast path is unchanged. Exhausting the
// retry budget records the entry in the snapshot's degraded set — the
// snapshot.replicas.degraded gauge — instead of failing the checkpoint;
// Repair re-replicates it at the next commit.
func (s *Snapshot) putReplica(c *apgas.Ctx, key int, e *entry, ownerIdx int) {
	backoff := replicaBackoff
	for attempt := 1; ; attempt++ {
		if err := s.rt.InjectFault(apgas.FaultPointReplica, c.Here); err == nil {
			s.plh.Local(c).put(key, e)
			return
		}
		if attempt >= replicaAttempts {
			break
		}
		s.instr.retries.Inc()
		s.rt.Obs().Trace("snapshot.replica.retry", int64(key), int64(attempt))
		time.Sleep(min(backoff, replicaAttemptCap))
		backoff *= 2
		// A backup place killed while we were backing off must abort the
		// task as a place death, not keep writing into a dead store.
		c.CheckAlive()
	}
	s.instr.dropped.Inc()
	s.rt.Obs().Trace("snapshot.replica.dropped", int64(key), int64(c.Here.ID))
	s.noteDegraded(key, ownerIdx)
}

// Load retrieves the entry for key. ownerIdx is the index (within the
// snapshot-time group) of the place that saved the entry; the object's
// restore logic knows it from the snapshot's descriptor. Under
// replication Load prefers the owner's copy and falls back to the
// replicas at the following slots (plus any repair-time extra holders)
// when the owner has failed; under erasure it gathers surviving shards
// from the slot set and reconstructs (see loadErasure). Reading a remote
// replica counts the payload in apgas.net.*. Integrity
// verification is memoized per replica, so re-loading an
// already-verified entry (e.g. many new blocks reading one old block
// during a regrid restore) does not re-hash it.
//
// Byte accounting (snapshot.load.bytes): a remote replica is counted at
// fetch time, alongside the Transfer counted in apgas.net.* — its
// payload crossed the network before it could be verified, so a replica
// that then fails CRC still cost its bytes and the two counters agree. A local replica involves no transfer and
// is counted only when it is actually returned.
func (s *Snapshot) Load(ctx *apgas.Ctx, key, ownerIdx int) ([]byte, error) {
	if ownerIdx < 0 || ownerIdx >= s.pg.Size() {
		return nil, fmt.Errorf("snapshot: owner index %d out of %d", ownerIdx, s.pg.Size())
	}
	if s.pol.erasure {
		return s.loadErasure(ctx, key, ownerIdx)
	}
	s.instr.loads.Inc()
	anyAlive := false
	sawCorrupt := false
	for ri, slot := range s.holderSlots(key, ownerIdx) {
		p := s.pg[slot]
		if s.rt.IsDead(p) {
			continue
		}
		anyAlive = true
		var (
			e     *entry
			found bool
		)
		local := p.ID == ctx.Here.ID
		if local {
			e, found = s.plh.Local(ctx).get(key)
		} else {
			origin := ctx.Here
			ctx.At(p, func(c *apgas.Ctx) {
				e, found = s.plh.Local(c).get(key)
				if found {
					// Charged (and counted) at fetch time; see the byte
					// accounting note in the doc comment.
					c.TransferSnapshot(origin, len(e.data))
					s.instr.loadBytes.Add(int64(len(e.data)))
				}
			})
		}
		if !found {
			continue
		}
		if !e.verify() {
			// A corrupted replica is as good as a lost one: fall through
			// to the other copy.
			s.instr.crcFailures.Inc()
			s.rt.Obs().Trace("snapshot.replica.corrupt", int64(key), int64(ownerIdx))
			sawCorrupt = true
			continue
		}
		if local {
			s.instr.loadLocal.Inc()
			s.instr.loadBytes.Add(int64(len(e.data)))
		} else {
			s.instr.loadRemote.Inc()
		}
		if ri > 0 {
			// Served from a backup replica because the owner's copy was
			// dead, missing, or corrupt.
			s.instr.fallbacks.Inc()
		}
		return e.data, nil
	}
	switch {
	case sawCorrupt:
		return nil, fmt.Errorf("snapshot: key %d owner %d: %w", key, ownerIdx, ErrCorrupt)
	case !anyAlive || s.isDegraded(key):
		// Either every holder place is dead, or the survivors never held a
		// copy — a replica put dropped under fault injection that repair
		// has not yet healed, with the holding places dead since. Both are
		// data loss, reported loudly rather than as a missing key.
		s.instr.lost.Inc()
		s.rt.Obs().Trace("snapshot.entry.lost", int64(key), int64(ownerIdx))
		return nil, fmt.Errorf("snapshot: key %d owner %d: %w", key, ownerIdx, ErrDataLost)
	default:
		return nil, fmt.Errorf("snapshot: key %d owner %d: %w", key, ownerIdx, ErrNotFound)
	}
}

// Digest returns the save-time CRC-32C checksum and payload size of the
// entry for key without transferring the payload — a metadata-only probe
// costing one control message at most. RestoreSnapshot uses it to
// validate a surviving place's in-memory state against the checkpoint:
// the survivor re-encodes its fragment locally and keeps it only if the
// digests match. Replica preference and fallback mirror Load.
func (s *Snapshot) Digest(ctx *apgas.Ctx, key, ownerIdx int) (sum uint32, size int, err error) {
	if ownerIdx < 0 || ownerIdx >= s.pg.Size() {
		return 0, 0, fmt.Errorf("snapshot: owner index %d out of %d", ownerIdx, s.pg.Size())
	}
	s.instr.digests.Inc()
	anyAlive := false
	for _, slot := range s.holderSlots(key, ownerIdx) {
		p := s.pg[slot]
		if s.rt.IsDead(p) {
			continue
		}
		anyAlive = true
		var (
			found bool
			fsum  uint32
			flen  int
		)
		probe := func(c *apgas.Ctx) {
			if e, ok := s.plh.Local(c).get(key); ok {
				found = true
				if e.set != nil {
					// Erasure shard: the digest describes the reassembled
					// payload, not the shard.
					fsum, flen = e.set.fullSum, e.set.fullLen
				} else {
					fsum, flen = e.sum, len(e.data)
				}
			}
		}
		if p.ID == ctx.Here.ID {
			probe(ctx)
		} else {
			ctx.At(p, probe)
		}
		if found {
			return fsum, flen, nil
		}
	}
	if !anyAlive || s.isDegraded(key) {
		return 0, 0, fmt.Errorf("snapshot: key %d owner %d: %w", key, ownerIdx, ErrDataLost)
	}
	return 0, 0, fmt.Errorf("snapshot: key %d owner %d: %w", key, ownerIdx, ErrNotFound)
}

// Destroy releases the snapshot's storage on every surviving place of its
// group, recycling pooled payload buffers and store shells for the next
// checkpoint. The application store calls this when a newer checkpoint
// commits (coordinated checkpointing keeps only one snapshot alive), which
// is what makes steady-state checkpointing allocation-free: checkpoint
// N+1 re-encodes into the buffers checkpoint N-1 released.
func (s *Snapshot) Destroy() {
	if s == nil || !s.plh.Valid() {
		return
	}
	if !s.destroyed.CompareAndSwap(false, true) {
		return
	}
	s.instr.destroys.Inc()
	// Entries still degraded at destruction leave the gauge with the
	// snapshot: the gauge tracks live below-redundancy entries, and a
	// destroyed snapshot's entries are not recoverable state any more.
	s.deg.mu.Lock()
	if n := len(s.deg.keys); n > 0 {
		s.instr.degradedG.Add(int64(-n))
	}
	s.deg.keys = nil
	s.deg.extras = nil
	s.deg.mu.Unlock()
	// Recycle each distinct entry's buffer once (owner and backup slots
	// share entries).
	seen := make(map[*entry]struct{})
	for _, ps := range s.stores {
		if ps != nil {
			ps.distinctEntries(seen)
		}
	}
	for e := range seen {
		if e.pooled {
			codec.PutBuffer(e.data)
		}
	}
	for _, ps := range s.stores {
		if ps != nil {
			ps.recycle()
		}
	}
	s.stores = nil
	s.plh.Destroy(s.pg)
}

// Bytes returns the total payload bytes stored on live places (every
// replica or shard counted), for tests and capacity accounting. All places are
// visited concurrently under a single finish (one AsyncAt per live place)
// rather than one finish round-trip per place.
func (s *Snapshot) Bytes() (int, error) {
	sizes := make([]int, s.pg.Size())
	err := s.rt.Finish(func(ctx *apgas.Ctx) {
		for i, p := range s.pg {
			if s.rt.IsDead(p) {
				continue
			}
			i, p := i, p
			ctx.AsyncAt(p, func(c *apgas.Ctx) {
				sizes[i] = s.plh.Local(c).bytes()
			})
		}
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	return total, nil
}
