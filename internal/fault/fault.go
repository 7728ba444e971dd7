package fault

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/mpi"
)

// maxRecordedEvents bounds the per-event log so a high-probability spec on
// a long campaign cannot grow memory without bound; the tally and digest
// keep covering every event past the cap.
const maxRecordedEvents = 10000

// Event records one injected fault decision, identified by the rank it hit
// and that rank's operation (or message) index — the coordinates that make
// a schedule comparable across runs.
type Event struct {
	// Class is the fault class: "delay", "drop", "straggler", "collective"
	// or "crash"; a decision spanning classes joins them with "+"
	// ("straggler+collective").
	Class string
	// World is the 1-based index of the world the fault fired in (0 when
	// the injector was driven without world boundaries).
	World uint64
	// Rank is the world rank the fault applied to (the sender for message
	// faults).
	Rank int
	// Kind is "op" or "msg": which per-rank counter Index indexes.
	Kind string
	// Index is the rank's operation or message index the fault fired at.
	Index uint64
	// Op is the runtime operation name for op faults ("send", "recv", a
	// collective name); empty for message faults.
	Op string
	// Dest and Tag identify the message for message faults.
	Dest, Tag int
	// Delay is the imposed delay, if any.
	Delay time.Duration
	// Resends is how many dropped transmission attempts were resent.
	Resends int
	// Lost marks a message that exhausted its resend budget.
	Lost bool
	// Crash marks a rank crash.
	Crash bool
}

// String renders the event on one line, stable across runs.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s w%d rank=%d %s#%d", e.Class, e.World, e.Rank, e.Kind, e.Index)
	if e.Op != "" {
		fmt.Fprintf(&b, " op=%s", e.Op)
	}
	if e.Kind == "msg" {
		fmt.Fprintf(&b, " dest=%d tag=%d", e.Dest, e.Tag)
	}
	if e.Delay > 0 {
		fmt.Fprintf(&b, " delay=%s", e.Delay)
	}
	if e.Resends > 0 {
		fmt.Fprintf(&b, " resends=%d", e.Resends)
	}
	if e.Lost {
		b.WriteString(" LOST")
	}
	if e.Crash {
		b.WriteString(" CRASH")
	}
	return b.String()
}

// Tally summarizes a schedule: how many decisions of each kind fired. It
// covers every event, including those past the recording cap.
type Tally struct {
	Delays      int `json:"delays"`
	Drops       int `json:"drops"` // messages with >=1 dropped attempt, recovered
	Lost        int `json:"lost"`
	Straggles   int `json:"straggles"`
	Collectives int `json:"collectives"`
	Crashes     int `json:"crashes"`
}

// String renders the tally on one line.
func (t Tally) String() string {
	return fmt.Sprintf("delays=%d drops=%d lost=%d straggles=%d collectives=%d crashes=%d",
		t.Delays, t.Drops, t.Lost, t.Straggles, t.Collectives, t.Crashes)
}

// tallyDelta maps one recorded event back to its tally contribution, so a
// doomed world's trimmed events can be subtracted exactly.
func tallyDelta(ev Event) Tally {
	var t Tally
	for _, c := range strings.Split(ev.Class, "+") {
		switch c {
		case "delay":
			t.Delays++
		case "drop":
			if ev.Lost {
				t.Lost++
			} else {
				t.Drops++
			}
		case "straggler":
			t.Straggles++
		case "collective":
			t.Collectives++
		case "crash":
			t.Crashes++
		}
	}
	return t
}

func (t *Tally) add(d Tally) {
	t.Delays += d.Delays
	t.Drops += d.Drops
	t.Lost += d.Lost
	t.Straggles += d.Straggles
	t.Collectives += d.Collectives
	t.Crashes += d.Crashes
}

func (t *Tally) sub(d Tally) {
	t.Delays -= d.Delays
	t.Drops -= d.Drops
	t.Lost -= d.Lost
	t.Straggles -= d.Straggles
	t.Collectives -= d.Collectives
	t.Crashes -= d.Crashes
}

// Injector implements mpi.Injector: it turns a Spec into per-operation
// fault decisions. Every probabilistic decision is a pure function of
// (seed, world index, rank, the rank's within-world operation or message
// index) — coordinates that do not depend on goroutine scheduling — so
// two runs with the same seed produce identical fault schedules, the
// property the chaos tests pin byte-for-byte. The world index advances at
// each mpi.Launch (via the mpi.WorldStarter hook), which also makes a
// harness retry continue the schedule in a fresh world instead of
// replaying the failed one. The crash trigger instead counts the target
// rank's operations across its whole lifetime, so crash `at` budgets span
// worlds and the crash fires exactly once.
//
// A world killed by a fault (a crash, or a message lost past its resend
// budget) tears its surviving ranks down at scheduler-dependent points;
// their trailing decisions in that world are noise, not schedule. The
// recorded schedule of a doomed world is therefore trimmed to the killing
// rank's own events (exact up to the event-recording cap), keeping the
// digest and schedule text reproducible across runs.
//
// Safe for concurrent ranks.
type Injector struct {
	spec Spec
	seed uint64

	mu       sync.Mutex
	world    uint64         // worlds started; 0 when driven without boundaries
	lifeOps  map[int]uint64 // per-rank lifetime op count: the crash trigger
	opIdx    map[int]uint64 // per-rank within-world op index
	msgIdx   map[int]uint64 // per-rank within-world message index
	crashed  bool
	doomed   bool // current world was killed by a fault
	keeper   int  // the killing rank, whose events the doomed world keeps
	curStart int  // index into events where the current world begins
	events   []Event
	tally    Tally
	digest   uint64 // order-independent combination of per-event hashes
	total    int
	straggle map[int]bool
}

// New builds an injector for the spec, deriving every decision from seed.
func New(spec Spec, seed uint64) *Injector {
	inj := &Injector{
		spec:     spec,
		seed:     seed,
		lifeOps:  make(map[int]uint64),
		opIdx:    make(map[int]uint64),
		msgIdx:   make(map[int]uint64),
		straggle: make(map[int]bool),
	}
	if st := spec.Straggler; st != nil {
		for _, r := range st.Ranks {
			inj.straggle[r] = true
		}
	}
	return inj
}

// WorldStart implements mpi.WorldStarter: it advances the world index and
// resets the within-world counters, giving the next world deterministic
// decision coordinates no matter where the previous world's ranks
// stopped.
func (inj *Injector) WorldStart() {
	inj.mu.Lock()
	inj.world++
	inj.curStart = len(inj.events)
	inj.doomed = false
	clear(inj.opIdx)
	clear(inj.msgIdx)
	inj.mu.Unlock()
}

// doom marks the current world as killed by rank keeper and trims the
// world's already-recorded events to that rank's own: the surviving
// ranks' progress past this point is scheduler-dependent, so keeping
// their events would make the schedule irreproducible. The caller holds
// inj.mu.
func (inj *Injector) doom(keeper int) {
	if inj.doomed {
		return
	}
	inj.doomed = true
	inj.keeper = keeper
	kept := inj.events[:inj.curStart]
	for _, ev := range inj.events[inj.curStart:] {
		if ev.Rank == keeper {
			kept = append(kept, ev)
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(ev.String()))
		inj.digest ^= h.Sum64()
		inj.total--
		inj.tally.sub(tallyDelta(ev))
	}
	inj.events = kept
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche over
// uint64, the standard cheap deterministic hash for seeded simulation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds the parts into one well-avalanched hash rooted at the seed.
func (inj *Injector) mix(parts ...uint64) uint64 {
	h := splitmix64(inj.seed)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// u01 maps a hash to [0,1) with 53 bits of precision.
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// salts separate the decision streams so e.g. a message's delay decision
// and its drop decision are independent.
const (
	saltDelay = 0x1001 + iota
	saltDelayScale
	saltDrop
	saltCollective
)

// Op implements mpi.Injector. It is consulted at the entry of every
// runtime operation the rank performs.
func (inj *Injector) Op(rank int, op string) mpi.OpFault {
	inj.mu.Lock()
	idx := inj.opIdx[rank]
	inj.opIdx[rank] = idx + 1
	life := inj.lifeOps[rank]
	inj.lifeOps[rank] = life + 1

	var of mpi.OpFault
	var classes []string
	if cr := inj.spec.Crash; cr != nil && !inj.crashed && rank == cr.Rank && life >= cr.At {
		inj.crashed = true
		of.Crash = true
		classes = append(classes, "crash")
	} else {
		if inj.straggle[rank] {
			of.Delay += inj.spec.Straggler.Delay
			classes = append(classes, "straggler")
		}
		if co := inj.spec.Collective; co != nil && isCollective(op) && (co.Op == "*" || co.Op == op) {
			if u01(inj.mix(saltCollective, inj.world, uint64(rank), idx)) < co.P {
				of.Delay += co.Delay
				classes = append(classes, "collective")
			}
		}
	}
	if len(classes) > 0 {
		if of.Crash {
			inj.doom(rank)
		}
		inj.record(Event{
			Class: strings.Join(classes, "+"),
			World: inj.world, Rank: rank, Kind: "op", Index: idx, Op: op,
			Delay: of.Delay, Crash: of.Crash,
		})
	}
	inj.mu.Unlock()
	return of
}

// Message implements mpi.Injector. It resolves the full injected fate of
// one point-to-point message: jitter delay, dropped attempts with
// exponential backoff, or loss past the resend budget.
func (inj *Injector) Message(src, dest, tag, bytes int) mpi.MsgFault {
	inj.mu.Lock()
	idx := inj.msgIdx[src]
	inj.msgIdx[src] = idx + 1

	var mf mpi.MsgFault
	var classes []string
	if d := inj.spec.Delay; d != nil {
		if u01(inj.mix(saltDelay, inj.world, uint64(src), idx)) < d.P {
			scale := 1 - d.Jitter + 2*d.Jitter*u01(inj.mix(saltDelayScale, inj.world, uint64(src), idx))
			mf.Delay += time.Duration(float64(d.Mean) * scale)
			classes = append(classes, "delay")
		}
	}
	if d := inj.spec.Drop; d != nil {
		// Resolve the whole retransmission protocol up front: attempt i is
		// dropped with probability P; each resend pays Backoff·2^i.
		lost := true
		for attempt := 0; attempt <= d.Resend; attempt++ {
			if u01(inj.mix(saltDrop, inj.world, uint64(src), idx, uint64(attempt))) >= d.P {
				lost = false
				mf.Resends = attempt
				break
			}
			mf.Delay += d.Backoff << attempt
		}
		if lost {
			mf.Lost = true
			mf.Resends = d.Resend
			classes = append(classes, "drop")
		} else if mf.Resends > 0 {
			classes = append(classes, "drop")
		}
	}
	if len(classes) > 0 {
		if mf.Lost {
			inj.doom(src)
		}
		inj.record(Event{
			Class: strings.Join(classes, "+"),
			World: inj.world, Rank: src, Kind: "msg", Index: idx,
			Dest: dest, Tag: tag,
			Delay: mf.Delay, Resends: mf.Resends, Lost: mf.Lost,
		})
	}
	inj.mu.Unlock()
	return mf
}

// record logs an event (up to the cap) and folds it into the digest and
// tally; the caller holds inj.mu. In a doomed world only the killing
// rank's events are schedule; the rest is teardown noise and is dropped.
func (inj *Injector) record(ev Event) {
	if inj.doomed && ev.Rank != inj.keeper {
		return
	}
	inj.total++
	h := fnv.New64a()
	h.Write([]byte(ev.String()))
	// XOR is order-independent, so the digest is deterministic even though
	// concurrent ranks append in scheduler order.
	inj.digest ^= h.Sum64()
	inj.tally.add(tallyDelta(ev))
	if len(inj.events) < maxRecordedEvents {
		inj.events = append(inj.events, ev)
	}
}

// Events returns the recorded fault events sorted by (world, rank, kind,
// index) — a deterministic order regardless of scheduler interleaving. At
// most maxRecordedEvents are retained; Tally covers the rest.
func (inj *Injector) Events() []Event {
	inj.mu.Lock()
	evs := append([]Event(nil), inj.events...)
	inj.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].World != evs[j].World {
			return evs[i].World < evs[j].World
		}
		if evs[i].Rank != evs[j].Rank {
			return evs[i].Rank < evs[j].Rank
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		return evs[i].Index < evs[j].Index
	})
	return evs
}

// Tally returns the schedule summary, covering every decision including
// those past the event-recording cap.
func (inj *Injector) Tally() Tally {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.tally
}

// Digest returns an order-independent hash over every fault event's
// rendered form (including events past the recording cap). Two runs with
// identical fault schedules have identical digests; it is the cheap
// byte-for-byte reproducibility check the chaos tests and the manifest
// use.
func (inj *Injector) Digest() string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return fmt.Sprintf("%016x-%d", inj.digest, inj.total)
}

// ScheduleText renders the schedule: spec, seed, tally, then every
// recorded event in deterministic order. Byte-for-byte identical across
// runs with the same seed and operation sequences.
func (inj *Injector) ScheduleText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec: %s\nseed: %d\ntally: %s\ndigest: %s\n", inj.spec, inj.seed, inj.Tally(), inj.Digest())
	evs := inj.Events()
	inj.mu.Lock()
	total := inj.total
	inj.mu.Unlock()
	if total > len(evs) {
		fmt.Fprintf(&b, "events: %d (first %d shown)\n", total, len(evs))
	} else {
		fmt.Fprintf(&b, "events: %d\n", total)
	}
	for _, ev := range evs {
		b.WriteString("  ")
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// isCollective reports whether op names a collective (rather than a
// point-to-point send/recv).
func isCollective(op string) bool { return op != "send" && op != "recv" }
