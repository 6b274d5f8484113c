package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"pok/internal/bpred"
	"pok/internal/cache"
	"pok/internal/ckpt"
	"pok/internal/emu"
	"pok/internal/isa"
	"pok/internal/lsq"
	"pok/internal/telemetry"
)

const inf = int64(math.MaxInt64 / 4)

// Deferred partial-tag completion kinds: a load issued with only its low
// address bits cannot finalize a miss (or way-mispredict replay) time
// until the rest of the address exists.
const (
	pendNone uint8 = iota
	pendWayMispred
	pendMiss
)

// sliceState tracks one slice-op of an in-flight instruction.
type sliceState struct {
	started bool
	inReady bool  // event scheduler: a candidate sits in the ready set
	startC  int64 // cycle execution of this slice began
	retryC  int64 // earliest re-execution after a replay
}

// avail returns when this slice's result is bypassable (1-cycle slice FU).
func (s *sliceState) avail() int64 {
	if !s.started {
		return inf
	}
	return s.startC + 1
}

// entry is one in-flight instruction in the window (RUU).
type entry struct {
	d   emu.DynInst
	seq uint64

	fetchC     int64
	dispC      int64
	dispatched bool
	committed  bool

	nSlices  int
	slices   [8]sliceState
	execDone bool // all slice-ops started (scheduling fast path)

	// SoA-style hot mirrors of the slices array, maintained at the issue
	// sites so the per-cycle consumers (entryDone, agenTimes, branch
	// resolution) test a mask and compare one integer instead of walking
	// the slice structs: startedMask has bit sl set once slice sl issued,
	// fullMask is (1<<nSlices)-1, and execEnd is the running maximum of
	// the per-slice result-available times (startC+1, or startC+fullLat
	// for full-width ops) — equal to lastSliceAvail once the mask fills.
	startedMask uint8
	fullMask    uint8
	execEnd     int64

	// fullOp state for full-width operations (nSlices == 1 and class not
	// a simple ALU op): started/start tracked in slices[0], latency here.
	fullLat int

	srcProd [2]*entry

	// Memory state.
	isLoad, isStore bool
	lsqInserted     bool
	memIssued       bool
	memPredDone     int64
	memActualDone   int64
	forwarded       bool
	wayMispred      bool
	memPendFull     uint8 // deferred completion kind (pendNone/WayMispred/Miss)
	memPendLat      int64 // latency parameter for the deferred completion
	earlyRelease    bool  // disambiguated with partial bits
	l1Hit           bool
	earlyMissSignal bool // partial tag ruled out all ways: miss known early

	// Commit-attribution bookkeeping (EvCommit.Arg/.Arg2): these fields
	// are written by the shared memory/schedule helpers and read only at
	// commit to classify the instruction's oldest-unresolved dependence.
	// They never feed back into timing decisions.
	disambigWait bool  // a load issue attempt was blocked by disambiguation
	replayedSelf bool  // one of this entry's own slice-ops replayed
	dataReadyC   int64 // cycle a store's data operand became forwardable

	// Source-operand roles (index into srcProd/d.Src, -1 if absent).
	dataSrc   int // stores: the data operand, not consumed by agen
	amountSrc int // variable shifts: the shift-amount operand

	// narrow marks results whose upper slices are a sign/zero extension
	// of the low slice (the NarrowWidth optimization applies).
	narrow bool

	// deps holds the slice dependences of the op (see sliceDeps), copied
	// from the machine's per-profile table at fetch.
	deps sliceDeps

	// Wrong-path state: wp entries never commit and are squashed when
	// their shadowing branch resolves; prevDstProd/prevDst2Prod record the
	// rename-map entries to restore at squash. The gen snapshots detect
	// producers that committed and were recycled (possibly reused) before
	// the squash: restoring such a pointer would rename later dispatches
	// onto an unrelated — even younger — entry, which can deadlock the
	// window.
	wp           bool
	prevDstProd  *entry
	prevDst2Prod *entry
	prevDstGen   uint32
	prevDst2Gen  uint32

	// Control state.
	isCtrl        bool
	pred          bpred.Prediction
	mispred       bool
	resolved      bool
	resolveC      int64
	earlyResolved bool // mispredict exposed by a partial comparison

	// Event-driven scheduler bookkeeping (idle under LegacyScheduler).
	//
	// gen is bumped every time the entry returns to the free pool, so
	// stale wakeup-wheel candidates and consumer references carrying an
	// old generation are recognized and dropped instead of acting on a
	// recycled entry. squashed marks wrong-path entries removed by a
	// squash (they may still be referenced by the wheel). consumers lists
	// the dispatched entries renamed onto this producer; a producer event
	// (slice executed, load completion time established) walks it to wake
	// dependents. retireTag snapshots seqCtr at commit/squash: the entry
	// can be recycled only once every older in-flight entry — any of
	// which may hold srcProd/prevDstProd pointers to it — has drained.
	gen       uint32
	squashed  bool
	retireTag uint64
	consumers []consRef

	// views is the mask of this entry's output views (the per-slice
	// results consumers read through srcAvail) whose speculative
	// availability is known. wakeConsumers grows it as producer events
	// fire; enqueueCand tests consumers' input masks against it before
	// computing a wake time.
	views uint8

	// lsqEnt points at lsqData while the op is in the LSQ, so the
	// per-cycle store/load bookkeeping pays neither a lookup nor (since
	// the storage is embedded in the pooled entry) a heap allocation.
	// The queue drops its reference at commit or squash, before the
	// entry can recycle, so the embedding never aliases a stale op.
	lsqEnt  *lsq.Entry
	lsqData lsq.Entry

	// Memoized depsAvail per (slice, announce), invalidated only on
	// producer events — this removes the duplicated speculative/actual
	// recomputation the scan-based scheduler performed every cycle.
	depsVal [8][2]int64
	depsOK  [8][2]bool
}

// sliceDeps is the slice-dependence shape of one op at the machine's
// slice count. in[sl] is the mask of source-operand slices that output
// slice sl reads; serial has bit sl set when slice sl must also wait for
// slice sl-1 to start (the carry chain, or in-order slice issue when
// out-of-order slices are disabled). A full-width op reads every slice
// of every source with its one slice-op.
type sliceDeps struct {
	in     [8]uint8
	serial uint8
}

// sliceDepTable derives the sliceDeps of every slice profile at
// cfg.Slices, once per machine.
func sliceDepTable(cfg *Config) (tab [isa.SliceFullWidth + 1]sliceDeps) {
	for p := range tab {
		for sl := 0; sl < cfg.Slices; sl++ {
			lo, hi, carry := isa.SliceProfile(p).InputSliceRange(sl, cfg.Slices)
			tab[p].in[sl] = uint8(1)<<hi - uint8(1)<<lo
			if sl > 0 && (carry || !cfg.OoOSlices) {
				tab[p].serial |= 1 << sl
			}
		}
	}
	return tab
}

// srcViews returns the mask of source i's slices that slice sl of e
// reads. A sliced store's data operand is read by the LSQ, not by
// address generation (checkStoreData polls it); a variable shift reads
// only slice 0 of its amount operand.
func (e *entry) srcViews(i, sl int) uint8 {
	if e.nSlices > 1 {
		switch i {
		case e.dataSrc:
			return 0
		case e.amountSrc:
			return 1
		}
	}
	return e.deps.in[sl]
}

// allViews is the mask of every slice of a register value.
func (s *Sim) allViews() uint8 {
	return uint8(1)<<s.cfg.Slices - 1
}

// consRef is one consumer registration on a producer entry. The gen
// snapshot detects consumers that were squashed and recycled while the
// producer was still in flight.
type consRef struct {
	e   *entry
	gen uint32
}

// invalidateDeps drops every memoized depsAvail value of the entry.
func (e *entry) invalidateDeps() {
	e.depsOK = [8][2]bool{}
}

// Result aggregates the statistics of one timing run.
type Result struct {
	Benchmark string
	Config    string

	Cycles int64
	Insts  uint64
	IPC    float64

	Loads, Stores     uint64
	Branches          uint64 // conditional
	Mispredicts       uint64
	BranchAccuracy    float64
	EqBranches        uint64
	EarlyResolved     uint64 // mispredicts redirected before full compare
	LoadsEarlyRelease uint64 // loads issued on partial disambiguation
	StoreForwards     uint64
	WayMispredicts    uint64 // partial-tag way mispredictions
	PartialTagAccess  uint64 // loads that used a partial-tag access
	EarlyMissSignals  uint64 // partial tag proved a miss early
	Replays           uint64 // slice-ops squashed by load-hit misspeculation
	WrongPathInsts    uint64 // wrong-path instructions fetched and squashed
	DTLBMissRate      float64

	// Stall attribution: cycles the front end spent blocked, by cause.
	StallMispredict uint64 // waiting for a branch to resolve
	StallICache     uint64 // instruction cache miss in progress
	StallWindowFull uint64 // dispatch blocked on a full RUU
	StallLSQFull    uint64 // dispatch blocked on a full load/store queue
	StallIQFull     uint64 // dispatch blocked on full issue queues
	L1DMissRate     float64
	L1IMissRate     float64

	// Telemetry is the aggregated observability summary (per-stage
	// occupancy and stall-cause histograms, event counts). It is non-nil
	// only when a telemetry Collector was attached to the run, so Result
	// stays bit-identical with telemetry off.
	Telemetry *telemetry.Summary

	// Stopped marks a run ended early by RequestStop (a signal or a
	// watchdog): the statistics cover the committed prefix, and a final
	// snapshot went to the checkpoint sink if one was attached.
	// StopReason says why. Both stay zero on a completed run, so Result
	// equality tests are unaffected.
	Stopped    bool
	StopReason string
}

// Sim is one timing simulation in progress.
type Sim struct {
	cfg  Config
	em   *emu.Emulator
	pred *bpred.Predictor
	hier *cache.Hierarchy
	dtlb *cache.TLB
	lsq  *lsq.Queue

	now      int64
	window   deque
	fetchBuf deque

	regProd [isa.NumRegs]*entry

	// commitRec is refilled for each commit the oracle checks.
	commitRec CommitRecord

	// Event-driven scheduler state (see sched_event.go). legacy mirrors
	// cfg.LegacyScheduler.
	legacy     bool
	tracing    bool // cfg.Trace != nil; gates trace formatting at call sites
	collecting bool // cfg.Collector != nil; gates telemetry emission
	oracleOn   bool // cfg.Oracle != nil; gates commit-record construction
	invOn      bool // cfg.Invariants != nil; gates the per-cycle checker
	injOn      bool // cfg.Inject != nil; gates fault-injection hooks
	inj        Injector
	tel        telemetry.Collector
	wh         wakeWheel // bucketed timing wheel of slice-op wakeups
	ready      []cand    // due candidates, kept sorted by (seq, slice)
	readyDirty bool      // ready gained unsorted arrivals this cycle
	memWatch   []*entry  // loads/stores still needing memory-stage attention
	iqCount    int       // window entries with !execDone (issue-queue slots)

	// Entry pool: freeList holds recycled entries; retireQ holds
	// committed/squashed entries whose recycling is deferred until no
	// older in-flight entry can still reference them (see retireTag).
	freeList []*entry
	retireQ  deque

	// storeScratch is reused by tryIssueLoad's early-release check.
	storeScratch []*lsq.Entry

	fetchBlockedBy *entry
	fetchStallTo   int64
	lastFetchLine  uint32
	haveLine       bool

	// pendingD/pendingOK hold the peeked correct-path instruction by
	// value: the old *DynInst field heap-allocated one record per fetched
	// instruction. wpD is the same for wrong-path supply.
	pendingD   emu.DynInst
	pendingOK  bool
	wpD        emu.DynInst
	traceDone  bool
	fetchedCnt uint64
	maxInsts   uint64
	seqCtr     uint64

	// Wrong-path fetch state.
	wpFork    *emu.Emulator
	wpBranch  *entry
	wpStopped bool

	// depTab is sliceDepTable(&cfg), indexed by isa.SliceProfile.
	depTab [isa.SliceFullWidth + 1]sliceDeps

	// Per-cycle resource accounting.
	aluUsed   [8]int
	issueUsed [8]int
	mulUsed   int
	fpUsed    int
	divFree   int64
	fpmdFree  int64
	portsUsed int

	// Quiet-cycle skipping (see skip.go). skipOK caches the gate: the
	// event-driven scheduler without tracing/telemetry/invariant/injection
	// observers may jump over provably-quiet cycles. memStarved records
	// that a load lost cache-port arbitration this cycle and will retry
	// next cycle, which makes the next cycle non-quiet.
	skipOK     bool
	memStarved bool

	// Architectural checkpointing (see ckpt.go). ckptEvery is the commit
	// cadence (0 = off); nextCkpt the next commit mark; fetchPaused holds
	// correct-path fetch while the pipeline drains to a quiescent
	// snapshot boundary; stopFlag carries an asynchronous RequestStop
	// reason; baseTel the telemetry accumulated before the snapshot this
	// run resumed from; lastCommitC the deadlock watchdog's last-commit
	// cycle (a field rather than a drive local so a resumed run restores
	// the watchdog's phase exactly and a sampled window can re-arm it);
	// resumed defers the first nextCycle so the resume point re-enters
	// drive's loop mid-iteration.
	ckptEvery   uint64
	ckptSink    ckpt.Sink
	ckptBench   string
	nextCkpt    uint64
	fetchPaused bool
	lastCommitC int64
	baseTel     *telemetry.Summary
	resumed     bool
	stopFlag    atomic.Pointer[string]

	res Result
}

// NewSim builds a simulation of prog under cfg, limited to maxInsts
// committed instructions (0 = run to program exit).
func NewSim(prog *emu.Program, cfg Config, maxInsts uint64) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newSim(cfg, emu.New(prog), maxInsts), nil
}

// newSim assembles a machine around em with cold predictor, DTLB, cache
// hierarchy and LSQ. It is the one constructor behind NewSim and
// NewSimFromSnapshot; a resume restores state into the components it
// built. cfg must already be validated.
func newSim(cfg Config, em *emu.Emulator, maxInsts uint64) *Sim {
	pred := bpred.NewDefault()
	if cfg.UseBimodal {
		pred.Dir = bpred.NewBimodal(16)
	}
	if cfg.UseLocal {
		pred.Dir = bpred.NewLocal(12, 14)
	}
	var dtlb *cache.TLB
	if cfg.UseDTLB {
		dtlb = cache.DefaultDTLB()
	}
	s := &Sim{
		cfg:        cfg,
		em:         em,
		pred:       pred,
		dtlb:       dtlb,
		hier:       cfg.Hierarchy(),
		lsq:        lsq.New(cfg.LSQSize),
		legacy:     cfg.LegacyScheduler,
		tracing:    cfg.Trace != nil,
		collecting: cfg.Collector != nil,
		oracleOn:   cfg.Oracle != nil,
		invOn:      cfg.Invariants != nil,
		injOn:      cfg.Inject != nil,
		inj:        cfg.Inject,
		tel:        cfg.Collector,
		maxInsts:   maxInsts,
		divFree:    -1,
		fpmdFree:   -1,
		res:        Result{Config: cfg.Name},
	}
	s.em.SetLegacy(cfg.LegacyEmulator)
	s.depTab = sliceDepTable(&cfg)
	s.wh.ovMin = inf
	if !s.legacy {
		// Pre-back every wheel bucket with a small slice of one shared
		// array: as simulated time wraps the ring, each bucket would
		// otherwise pay its own first-append allocations.
		backing := make([]cand, wheelHorizon*4)
		for i := range s.wh.bucket {
			s.wh.bucket[i] = backing[i*4 : i*4 : (i+1)*4]
		}
	}
	// Quiet-cycle skipping requires the event-driven scheduler (the legacy
	// scan is the per-cycle reference) and no per-cycle observers: tracing,
	// telemetry sampling and the invariant checker all want to see every
	// cycle, and fault injection may retime decisions cycle by cycle.
	s.skipOK = !s.legacy && !s.tracing && !s.collecting && !s.invOn && !s.injOn
	return s
}

// ---------------------------------------------------------------------------
// Entry pool
// ---------------------------------------------------------------------------

// allocEntry returns a zeroed entry, reusing a pooled one when possible.
// The recycle generation survives the reset so any stale wheel candidate
// still pointing at the entry is recognized as dead.
func (s *Sim) allocEntry() *entry {
	if n := len(s.freeList); n > 0 {
		e := s.freeList[n-1]
		s.freeList[n-1] = nil
		s.freeList = s.freeList[:n-1]
		gen, cons := e.gen, e.consumers[:0]
		*e = entry{gen: gen, consumers: cons}
		return e
	}
	return new(entry)
}

// freeEntry returns an entry to the pool. Bumping gen orphans every
// outstanding wheel candidate and consumer reference immediately.
func (s *Sim) freeEntry(e *entry) {
	e.gen++
	s.freeList = append(s.freeList, e)
}

// recycleRetired drains the head of the retire queue: an entry becomes
// poolable once every entry dispatched before it left the machine (those
// are the only ones that can hold srcProd/prevDstProd pointers to it)
// and it is no longer pinned by the fetch unit's branch bookkeeping.
func (s *Sim) recycleRetired() {
	for s.retireQ.Len() > 0 {
		e := s.retireQ.Front()
		if s.window.Len() > 0 && s.window.Front().seq < e.retireTag {
			return
		}
		if e == s.wpBranch || e == s.fetchBlockedBy {
			return
		}
		s.retireQ.PopFront()
		s.freeEntry(e)
	}
}

// FastForward functionally executes n instructions before timing begins,
// skipping initialization phases the way the paper's 1B-instruction
// fast-forward does; n = 0 does nothing. It must be called before Run.
func (s *Sim) FastForward(n uint64) error {
	if s.now != 0 || s.fetchedCnt != 0 {
		return fmt.Errorf("core: FastForward after simulation started")
	}
	if n == 0 {
		return nil // emu.Run reads 0 as "no limit"
	}
	_, err := s.em.Run(n, nil)
	return err
}

// Run executes the simulation to completion and returns the statistics.
func Run(prog *emu.Program, cfg Config, maxInsts uint64) (*Result, error) {
	return RunWarm(prog, cfg, 0, maxInsts)
}

// RunWarm fast-forwards warmup instructions functionally, then simulates
// up to maxInsts committed instructions.
func RunWarm(prog *emu.Program, cfg Config, warmup, maxInsts uint64) (*Result, error) {
	s, err := NewSim(prog, cfg, maxInsts)
	if err != nil {
		return nil, err
	}
	if err := s.FastForward(warmup); err != nil {
		return nil, err
	}
	return s.Run()
}

// Run drives cycles until the instruction budget commits or the program
// ends, then finalizes statistics.
func (s *Sim) Run() (*Result, error) {
	stop, err := s.drive()
	if err != nil {
		return nil, err
	}
	return s.finalize(stop), nil
}

// drive is the timing core's one cycle loop, behind Run and every
// sampled window. It cycles until the pipeline drains (stop == "") or a
// RequestStop is honored at a quiescent boundary (stop is its reason),
// taking armed checkpoints on the way. The deadlock watchdog's budget
// is configurable through Invariants, else the historic 40k-cycle
// livelock guard; a machine that stops committing yields a structured
// *DeadlockError with a pipeline dump, never a hang.
func (s *Sim) drive() (stop string, err error) {
	budget := s.cfg.Invariants.deadlockBudget()
	if s.resumed {
		// The snapshot was captured mid-iteration, just before the
		// uninterrupted run's nextCycle call; replaying that call from
		// the restored (quiescent) state re-enters the loop at exactly
		// the cycle the uninterrupted run simulated next — including the
		// stall-counter bulk-add a quiet-cycle skip would have charged.
		s.resumed = false
		s.now = s.nextCycle(s.lastCommitC, budget)
	}
	for {
		committed, err := s.cycle()
		if err != nil {
			return "", err
		}
		if committed > 0 {
			s.lastCommitC = s.now
		}
		if s.drained() {
			return "", nil
		}
		if s.fetchPaused || s.stopFlag.Load() != nil ||
			(s.ckptEvery > 0 && s.res.Insts >= s.nextCkpt) {
			s.fetchPaused = true
			if s.quiescent() {
				// Advance the mark before capturing so the snapshot
				// carries the *next* mark and a resumed run does not
				// immediately re-checkpoint at the same boundary.
				for s.ckptEvery > 0 && s.nextCkpt <= s.res.Insts {
					s.nextCkpt += s.ckptEvery
				}
				stop := s.stopReason()
				captured, err := s.checkpointNow(stop != "")
				if err != nil {
					return "", err
				}
				if captured && stop == "" {
					stop = s.stopReason() // the sink's Write may have asked
				}
				s.fetchPaused = false
				if stop != "" {
					return stop, nil
				}
			}
		}
		if s.now-s.lastCommitC > budget {
			return "", &DeadlockError{
				Cycle:     s.now,
				Committed: s.res.Insts,
				Budget:    budget,
				Dump:      s.dumpWindow(16),
			}
		}
		s.now = s.nextCycle(s.lastCommitC, budget)
	}
}

// finalize closes the cycle count, computes the derived statistics and
// returns the Result. A non-empty stopReason marks the run as ended
// early by RequestStop.
func (s *Sim) finalize(stopReason string) *Result {
	s.res.Cycles = s.now + 1
	s.deriveStats()
	if stopReason != "" {
		s.res.Stopped = true
		s.res.StopReason = stopReason
	}
	return &s.res
}

// deriveStats fills the Result fields computed from the raw counters
// and s.res.Cycles: IPC, branch accuracy, miss rates and the telemetry
// summary.
func (s *Sim) deriveStats() {
	if s.res.Cycles > 0 {
		s.res.IPC = float64(s.res.Insts) / float64(s.res.Cycles)
	}
	if s.res.Branches > 0 {
		s.res.BranchAccuracy = 1 - float64(s.res.Mispredicts)/float64(s.res.Branches)
	} else {
		s.res.BranchAccuracy = 1
	}
	s.res.L1DMissRate = s.hier.L1D.MissRate()
	s.res.L1IMissRate = s.hier.L1I.MissRate()
	if s.dtlb != nil {
		s.res.DTLBMissRate = s.dtlb.MissRate()
	}
	if s.tel != nil {
		s.res.Telemetry = s.telemetrySummary()
	}
}

// telemetrySummary is the collector's summary, folded onto the summary
// restored from a snapshot when the run resumed from one.
func (s *Sim) telemetrySummary() *telemetry.Summary {
	sum := s.tel.Summary()
	if s.baseTel != nil {
		m := s.baseTel.Clone()
		m.Merge(sum)
		sum = m
	}
	return sum
}

// emit forwards one structured telemetry event. Callers must guard
// with s.collecting so the disabled path pays only the branch.
func (s *Sim) emit(k telemetry.Kind, seq uint64, slice int8, arg, arg2 int64) {
	s.tel.Event(telemetry.Event{
		Cycle: s.now, Seq: seq, Kind: k, Slice: slice, Arg: arg, Arg2: arg2,
	})
}

// b2i is the branch-free bool->int64 telemetry payload helper.
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// trace emits one pipeline-event line when tracing is enabled.
func (s *Sim) trace(format string, args ...any) {
	if s.cfg.Trace != nil {
		fmt.Fprintf(s.cfg.Trace, "%8d  "+format+"\n",
			append([]any{s.now}, args...)...)
	}
}

func (s *Sim) drained() bool {
	return s.traceDone && s.window.Len() == 0 && s.fetchBuf.Len() == 0
}

// cycle advances the machine one clock and returns how many instructions
// committed.
func (s *Sim) cycle() (int, error) {
	s.aluUsed = [8]int{}
	s.issueUsed = [8]int{}
	s.mulUsed, s.fpUsed, s.portsUsed = 0, 0, 0
	s.memStarved = false
	if !s.legacy {
		// Re-anchor the wheel at the cycle being simulated: wakeups pushed
		// by this cycle's earlier stages (the memory stage completing a
		// load) with wake <= now must land in the bucket schedule() is
		// about to drain. After a quiet-cycle skip, every bucket between
		// the old base and now is provably empty (the skip never jumps
		// past the wheel's earliest wake).
		s.wh.base = s.now
	}

	n, err := s.commit()
	if err != nil {
		return n, err
	}
	if s.legacy {
		s.memoryStageLegacy()
		s.scheduleLegacy()
	} else {
		s.memoryStage()
		s.schedule()
	}
	s.dispatch()
	if err := s.fetch(); err != nil {
		return n, err
	}
	s.recycleRetired()
	if s.collecting {
		s.sampleCycle()
	}
	if s.invOn {
		if err := s.checkInvariants(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// sampleCycle publishes the end-of-cycle occupancy snapshot to the
// telemetry collector (the per-stage histograms of the Summary).
func (s *Sim) sampleCycle() {
	issued := 0
	for _, u := range s.issueUsed {
		issued += u
	}
	s.tel.CycleSample(telemetry.CycleSample{
		Cycle:  s.now,
		Window: s.window.Len(),
		IQ:     s.iqOccupancy(),
		LSQ:    s.lsq.Len(),
		Issued: issued,
		Ports:  s.portsUsed,
	})
}
