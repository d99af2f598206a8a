package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"pocolo/internal/assign"
	"pocolo/internal/invariant"
	"pocolo/internal/machine"
	"pocolo/internal/obs"
	"pocolo/internal/parallel"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// DefaultPodSize is the default number of hosts per pod. Pods keep the
// O(m³) assignment solve and the O(n·m) matrix bounded: a 10k-host
// cluster becomes ~160 independent 64-host problems instead of one
// 10k×10k matrix that could never be built, let alone solved, per
// round.
const DefaultPodSize = 64

// rebalanceRounds bounds the cross-pod migration passes per Rebalance
// call.
const rebalanceRounds = 2

// ShardSettings configures pod sharding of the assignment problem.
// The zero value means unsharded (one pod spanning the whole cluster).
type ShardSettings struct {
	// PodSize is the number of LC hosts per pod (0 = DefaultPodSize when
	// sharding is in use). Hosts are partitioned contiguously, so a
	// budget tree whose leaf order matches the host order maps rack- or
	// row-aligned subtrees onto pods.
	PodSize int
	// RebalanceGap is the minimum estimated cross-pod gain (in matrix
	// value units) before a job migrates to another pod. Every migration
	// strictly increases total value by more than the gap, so
	// rebalancing terminates.
	RebalanceGap float64
	// batchThreshold, when nonzero, replaces assign.DefaultBatchThreshold
	// as the dirty-line count at or above which a pod's Refresh hands the
	// whole dirty set to the parallel auction batch re-solve instead of
	// repairing line by line; 1 forces the sequential path. The
	// assignment value is identical either way, so only the package's
	// tests set it, to hold the two paths to each other.
	batchThreshold int
}

func (s ShardSettings) podSize() int {
	if s.PodSize <= 0 {
		return DefaultPodSize
	}
	return s.PodSize
}

// sPod is one shard: a contiguous slice of hosts with its own
// delta-driven matrix builder and incremental solver, index-aligned
// row for row (both sides use the same swap-remove semantics).
type sPod struct {
	name    string
	builder *MatrixBuilder
	solver  *assign.Incremental
	pending DeltaStats        // matrix work since the last Solve emit
	batch   assign.BatchStats // batch re-solve work since the last Solve emit
	// marked means an input of the pod changed since its last Refresh
	// (MarkHost, MarkJob, SetHostDown); Refresh re-reads only marked pods.
	marked bool
	// touched marks that the matrix or matching changed since the last
	// validated Solve; only touched pods re-validate, recompute total and
	// report their assignments, which is what keeps a steady-state
	// single-host re-solve sublinear in pod count.
	touched bool
	// total is the pod's optimal value as of the last Solve that found
	// it touched.
	total float64
	// stranded means a job sat on a down host when the pod was last
	// refreshed or evacuated; Evacuate visits only stranded pods.
	stranded bool
	// obs carries the pod's solve-latency and batch-work handles
	// (nil when the cluster runs without a metrics registry).
	obs *obs.SolveObs
}

// Sharded decomposes a cluster-wide assignment into independently
// solved pods. Jobs are apportioned to pods proportionally to pod
// capacity (largest remainder, contiguous slices — a block-replicated
// cluster shards into exact per-replica pods), each pod keeps an
// incremental solver warm across rounds, and Rebalance migrates jobs
// across pods when the estimated gain exceeds the configured gap.
//
// Matrix construction and refresh run sequentially across pods so the
// shared delta-cell memo's computed/reused split is deterministic (the
// counters are traced); solver work — the expensive part — has no
// shared state and fans through the parallel pool.
//
// A re-solve costs what its caller changed: callers mark the hosts and
// jobs whose inputs they changed (MarkHost, MarkJob, SetHostDown),
// Refresh re-reads only the marked pods, Evacuate visits only pods that
// hold a job on a down host, and Solve re-validates and reports only the
// pods whose matching changed.
//
// Sharded is not safe for concurrent use.
type Sharded struct {
	platform machine.Config
	loads    []float64
	models   map[string]*utility.Model
	workers  int
	set      ShardSettings
	globalID uint32
	pods     []*sPod
	// jobPod maps each job to the pod that holds it.
	jobPod map[string]int
	// marked lists the marked pods in marking order.
	marked []int
	// placed is the list Solve returns, reused by the next Solve.
	placed []Assignment
}

// Assignment is one job's host in the placement Solve reports.
type Assignment struct {
	Job, Host string
}

// NewSharded partitions the cluster into pods and builds every pod's
// matrix and solver. cfg.LC and cfg.BE are the global host and job
// lists. Specs and the model map are shared, not copied: a caller that
// changes a host's spec or replaces a job's or host's model in place
// marks it (MarkHost, MarkJob), and the next Refresh picks the change up.
func NewSharded(cfg MatrixConfig, set ShardSettings) (*Sharded, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.LC) == 0 {
		return nil, errors.New("cluster: need at least one LC host")
	}
	if len(cfg.BE) > len(cfg.LC) {
		return nil, fmt.Errorf("cluster: %d BE jobs exceed %d hosts", len(cfg.BE), len(cfg.LC))
	}
	loads := cfg.Loads
	if len(loads) == 0 {
		loads = DefaultLoadRange()
	}
	s := &Sharded{
		platform: cfg.Machine,
		loads:    append([]float64(nil), loads...),
		models:   cfg.Models,
		workers:  cfg.Parallel,
		set:      set,
		globalID: internFP(globalFP(cfg.Machine, loads)),
		jobPod:   make(map[string]int, len(cfg.BE)),
	}
	podSize := set.podSize()
	nPods := (len(cfg.LC) + podSize - 1) / podSize
	// Apportion jobs to pods proportionally to capacity by largest
	// remainder, in contiguous slices. Contiguity means a block-
	// replicated cluster (k replicas of an nBE×nLC block) with
	// PodSize == nLC shards into exactly its per-replica blocks.
	counts := apportion(len(cfg.BE), podCapacities(len(cfg.LC), podSize))
	s.pods = make([]*sPod, nPods)
	jobAt := 0
	for p := 0; p < nPods; p++ {
		lo, hi := p*podSize, (p+1)*podSize
		if hi > len(cfg.LC) {
			hi = len(cfg.LC)
		}
		pcfg := cfg
		pcfg.LC = cfg.LC[lo:hi]
		pcfg.BE = cfg.BE[jobAt : jobAt+counts[p]]
		pcfg.Loads = s.loads
		jobAt += counts[p]
		for _, be := range pcfg.BE {
			s.jobPod[be.Name] = p
		}
		b, err := NewMatrixBuilder(pcfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: pod %d: %w", p, err)
		}
		pod := &sPod{name: fmt.Sprintf("pod-%d", p), builder: b, pending: b.Stats(), touched: true}
		// The registry get-or-creates by (name, labels), so a rebuilt
		// Sharded (the controller rebuilds its engine when a new agent
		// reports) lands on the same series as the one it replaces.
		pod.obs = obs.NewSolveObs(cfg.Obs, pod.name)
		s.pods[p] = pod
	}
	// Solver construction is per-pod pure work: fan it out. The initial
	// full solve is the pod's most expensive solve, so it lands in the
	// same per-pod latency histogram the batch re-solves feed.
	err := parallel.ForEach(nPods, s.workers, func(p int) error {
		pod := s.pods[p]
		var start time.Time
		if pod.obs != nil {
			start = time.Now()
		}
		var err error
		if pod.builder.Rows() > 0 {
			pod.solver, err = assign.NewIncremental(pod.builder.Matrix().Value)
		} else {
			pod.solver, err = assign.NewIncrementalCols(pod.builder.Cols())
		}
		if err != nil {
			return fmt.Errorf("cluster: pod %d solve: %w", p, err)
		}
		if pod.obs != nil {
			pod.obs.Record(time.Since(start), 0, 0, 0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func podCapacities(nLC, podSize int) []int {
	nPods := (nLC + podSize - 1) / podSize
	caps := make([]int, nPods)
	for p := range caps {
		caps[p] = podSize
	}
	if rem := nLC % podSize; rem != 0 {
		caps[nPods-1] = rem
	}
	return caps
}

// apportion distributes total items over buckets proportionally to
// caps by largest remainder, never exceeding a bucket's cap. total must
// be at most the sum of caps.
func apportion(total int, caps []int) []int {
	sum := 0
	for _, c := range caps {
		sum += c
	}
	counts := make([]int, len(caps))
	if total == 0 || sum == 0 {
		return counts
	}
	assigned := 0
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(caps))
	for i, c := range caps {
		exact := float64(total) * float64(c) / float64(sum)
		counts[i] = int(exact)
		assigned += counts[i]
		rems = append(rems, rem{i, exact - float64(counts[i])})
	}
	// Hand out the leftovers to the largest fractional remainders;
	// ties break toward the earlier pod for determinism.
	for assigned < total {
		best := -1
		for k := range rems {
			i := rems[k].idx
			if counts[i] >= caps[i] {
				continue
			}
			if best == -1 || rems[k].frac > rems[best].frac {
				best = k
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}

// Pods returns the number of pods.
func (s *Sharded) Pods() int { return len(s.pods) }

// PodDims returns pod p's current (jobs, hosts) dimensions.
func (s *Sharded) PodDims(p int) (rows, cols int) {
	return s.pods[p].builder.Rows(), s.pods[p].builder.Cols()
}

// SetHostDown takes global host index host (its position in the
// MatrixConfig.LC the cluster was built from) out of service, or puts it
// back, and marks its pod when that changes the host's state. Like every
// input change it lands on the next Refresh, which turns the host's
// column into sentinel cells below every real cell and repairs only its
// pod. A job the repair still leaves on a down host belongs to a pod
// with more jobs than live hosts; Evacuate moves it.
func (s *Sharded) SetHostDown(host int, down bool) {
	ps := s.set.podSize()
	if b := s.pods[host/ps].builder; b.down[host%ps] != down {
		b.down[host%ps] = down
		s.mark(host / ps)
	}
}

// MarkHost marks global host index host as changed: its spec's peak load
// or provisioned power, or its model entry, so the next Refresh re-reads
// its pod.
func (s *Sharded) MarkHost(host int) { s.mark(host / s.set.podSize()) }

// MarkJob marks the job named name as changed (its model entry), so the
// next Refresh re-reads the pod that holds it. A name that is not one of
// the cluster's jobs marks nothing.
func (s *Sharded) MarkJob(name string) {
	if p, ok := s.jobPod[name]; ok {
		s.mark(p)
	}
}

// mark queues pod p for the next Refresh.
func (s *Sharded) mark(p int) {
	if pod := s.pods[p]; !pod.marked {
		pod.marked = true
		s.marked = append(s.marked, p)
	}
}

// holdsDownJob reports whether a job of the pod sits on a down host.
func (pod *sPod) holdsDownJob() bool {
	for r := 0; r < pod.builder.Rows(); r++ {
		if pod.builder.down[pod.solver.ColOf(r)] {
			return true
		}
	}
	return false
}

// Total returns the summed optimal assignment value across pods.
func (s *Sharded) Total() float64 {
	t := 0.0
	for _, pod := range s.pods {
		t += pod.solver.Total()
	}
	return t
}

// Placement returns the BE→LC host mapping across all pods.
func (s *Sharded) Placement() map[string]string {
	out := make(map[string]string)
	for _, pod := range s.pods {
		mx := pod.builder.Matrix()
		for i, j := range pod.solver.Assignment() {
			out[mx.BENames[i]] = mx.LCNames[j]
		}
	}
	return out
}

// Refresh picks up the marked host and job drift, and nothing else: each
// marked pod's builder re-fingerprints its inputs and recomputes only
// dirty cells, then the pod's solver repairs the changed rows and columns
// in one ResolveBatch call — the sequential per-line repair below the
// configured batch threshold, the parallel auction re-solve at or above
// it. The repaired assignment value is identical either way. Marked pods
// refresh in pod order, whatever order they were marked in, so the
// delta-cell counters do not depend on it.
func (s *Sharded) Refresh() (DeltaStats, error) {
	var agg DeltaStats
	slices.Sort(s.marked)
	marked := s.marked
	results := make([]RefreshResult, len(marked))
	for k, p := range marked {
		pod := s.pods[p]
		res, err := pod.builder.Refresh()
		if err != nil {
			// The pods not yet refreshed stay marked.
			s.marked = append(s.marked[:0], marked[k:]...)
			return agg, fmt.Errorf("cluster: pod %d refresh: %w", p, err)
		}
		pod.marked = false
		results[k] = res
		pod.pending.add(res.Stats)
		agg.add(res.Stats)
		if len(res.ChangedRows) > 0 || len(res.ChangedCols) > 0 {
			pod.touched = true
		}
	}
	// marked stays valid below: nothing marks a pod until Refresh returns.
	s.marked = s.marked[:0]
	// Pods fan out across the pool; the auction's inner bid phase only
	// gets the pool when there is a single pod, so the two levels never
	// oversubscribe.
	innerWorkers := 1
	if len(s.pods) == 1 {
		innerWorkers = s.workers
	}
	err := parallel.ForEach(len(marked), s.workers, func(m int) error {
		p := marked[m]
		pod := s.pods[p]
		res := &results[m]
		if len(res.ChangedRows) == 0 && len(res.ChangedCols) == 0 {
			return nil
		}
		opts := assign.BatchOptions{Threshold: s.set.batchThreshold, Workers: innerWorkers, Obs: pod.obs}
		mx := pod.builder.Matrix()
		rows := make([]assign.RowUpdate, len(res.ChangedRows))
		for k, i := range res.ChangedRows {
			rows[k] = assign.RowUpdate{Index: i, Values: mx.Value[i]}
		}
		cols := make([]assign.ColUpdate, len(res.ChangedCols))
		for k, j := range res.ChangedCols {
			col := make([]float64, pod.builder.Rows())
			for i := range col {
				col[i] = mx.Value[i][j]
			}
			cols[k] = assign.ColUpdate{Index: j, Values: col}
		}
		st, err := pod.solver.ResolveBatch(rows, cols, opts)
		if err != nil {
			return fmt.Errorf("cluster: pod %d batch repair: %w", p, err)
		}
		pod.batch.DirtyRows += st.DirtyRows
		pod.batch.DirtyCols += st.DirtyCols
		pod.batch.AuctionRounds += st.AuctionRounds
		pod.batch.CleanupAugments += st.CleanupAugments
		return nil
	})
	if err != nil {
		return agg, err
	}
	for _, p := range marked {
		s.pods[p].stranded = s.pods[p].holdsDownJob()
	}
	return agg, nil
}

// pairValue prices one (job, host) cell through the delta-cell memo —
// the rebalancer's cross-pod lens, sharing cached cells with every
// builder.
func (s *Sharded) pairValue(be *workload.Spec, beM *utility.Model, lc *workload.Spec, lcM *utility.Model) (float64, error) {
	k := cellKey{global: s.globalID, row: internFP(utility.ModelKey(beM)), col: internFP(colFP(lc, lcM))}
	v, _, err := cells.Get(k, func() (float64, error) {
		return estimatePairThroughput(s.platform, lc, lcM, beM, s.loads)
	})
	return v, err
}

// Evacuate moves every job that Refresh left on a down host to the best
// free live host of another pod, whatever the gain, and returns the
// number of moves. After Refresh such a job exists only in a pod with
// more jobs than live hosts (an optimal pod never leaves a free live
// host for a down one), so while jobs do not outnumber live hosts
// cluster-wide every job ends up on a live host. Only stranded pods are
// visited: the ones Refresh left holding such a job, and the ones an
// earlier Evacuate could not empty for want of a free host — a host
// that frees anywhere lets their jobs move. Moves are not traced: the
// caller sees them in the assignments Solve reports.
func (s *Sharded) Evacuate() (int, error) {
	moves := 0
	for p, pod := range s.pods {
		if !pod.stranded {
			continue
		}
		for r := 0; r < pod.builder.Rows(); {
			if !pod.builder.down[pod.solver.ColOf(r)] {
				r++
				continue
			}
			migrated, err := s.tryMigrate(p, r, math.Inf(-1), nil, time.Time{})
			if err != nil {
				return moves, err
			}
			if !migrated {
				// No pod has a free live host left, and evacuating never
				// frees one.
				return moves, nil
			}
			// RemoveRow swapped the last job into slot r: re-examine it.
			moves++
		}
		pod.stranded = false
	}
	return moves, nil
}

// Rebalance migrates jobs across pods while a free host in another pod
// beats a job's current cell by more than the configured gap. The gain
// estimate is a lower bound — adding the job's row to the target pod
// can only match it at least as well as the best free column, and
// removing it costs the source exactly its current cell — so every
// migration strictly increases total value, which both guarantees
// termination and means sharding's placement quality monotonically
// approaches the unsharded optimum as the gap shrinks. Migrations are
// traced as migration events with reason "rebalance".
func (s *Sharded) Rebalance(tr *trace.Tracer, now time.Time) (int, error) {
	moves := 0
	for round := 0; round < rebalanceRounds; round++ {
		moved := 0
		for p, pod := range s.pods {
			for r := 0; r < pod.builder.Rows(); {
				migrated, err := s.tryMigrate(p, r, s.set.RebalanceGap, tr, now)
				if err != nil {
					return moves, err
				}
				if migrated {
					moved++
					// RemoveRow swapped the last job into slot r:
					// re-examine it before advancing.
					continue
				}
				r++
			}
		}
		moves += moved
		if moved == 0 {
			break
		}
	}
	return moves, nil
}

// tryMigrate evaluates job r of pod p against every other pod's free
// live hosts and moves it to the best one if the gain beats minGain.
func (s *Sharded) tryMigrate(p, r int, minGain float64, tr *trace.Tracer, now time.Time) (bool, error) {
	src := s.pods[p]
	spec := src.builder.RowSpec(r)
	model, ok := s.models[spec.Name]
	if !ok {
		return false, fmt.Errorf("cluster: no fitted model for %s", spec.Name)
	}
	cur := src.solver.At(r, src.solver.ColOf(r))
	bestGain := minGain
	bestPod := -1
	for q, dst := range s.pods {
		if q == p || dst.builder.Rows() >= dst.builder.Cols() {
			continue
		}
		for j := 0; j < dst.builder.Cols(); j++ {
			if dst.solver.RowOf(j) != -1 || dst.builder.down[j] {
				continue
			}
			v, err := s.pairValue(spec, model, dst.builder.lc[j], dst.builder.lcModel[j])
			if err != nil {
				return false, err
			}
			if gain := v - cur; gain > bestGain {
				bestGain = gain
				bestPod = q
			}
		}
	}
	if bestPod == -1 {
		return false, nil
	}
	src, dst := s.pods[p], s.pods[bestPod]
	fromHost := src.builder.Matrix().LCNames[src.solver.ColOf(r)]
	if err := src.builder.RemoveRow(r); err != nil {
		return false, err
	}
	if err := src.solver.RemoveRow(r); err != nil {
		return false, err
	}
	i, err := dst.builder.AddRow(spec)
	if err != nil {
		return false, err
	}
	if _, err := dst.solver.AddRow(dst.builder.Matrix().Value[i]); err != nil {
		return false, err
	}
	toHost := dst.builder.Matrix().LCNames[dst.solver.ColOf(i)]
	s.jobPod[spec.Name] = bestPod
	src.touched = true
	dst.touched = true
	tr.Migration(now, trace.Placement{BE: spec.Name, Node: toHost, From: fromHost, Reason: "rebalance"})
	return true, nil
}

// Solve aggregates the per-pod optima into the cluster's total,
// validating the assignment of each pod touched since the last Solve
// (every pod, on the first), and reports those pods' assignments: a job
// moves only within or between touched pods, so the report patches the
// previous placement into the current one. The returned slice is reused
// by the next Solve. Solve emits one traced SolveSummary per non-empty
// pod (tagged with the pod name and the delta-cell counters accumulated
// since the last Solve) plus a cluster-level "sharded" summary. An
// untouched pod reports the total cached when it was last touched.
func (s *Sharded) Solve(tr *trace.Tracer, now time.Time) ([]Assignment, float64, error) {
	sp := tr.StartSpan("solve")
	defer sp.End(now)
	s.placed = s.placed[:0]
	total := 0.0
	rows, cols := 0, 0
	var agg DeltaStats
	var aggBatch assign.BatchStats
	for p, pod := range s.pods {
		n := pod.builder.Rows()
		if pod.touched {
			mx := pod.builder.Matrix()
			pod.total = pod.solver.Total()
			if n > 0 {
				if err := invariant.CheckAssignment(mx.Value, pod.solver.Assignment(), pod.total); err != nil {
					return nil, 0, fmt.Errorf("cluster: pod %d solver: %w", p, err)
				}
			}
			for i := 0; i < n; i++ {
				s.placed = append(s.placed, Assignment{Job: mx.BENames[i], Host: mx.LCNames[pod.solver.ColOf(i)]})
			}
			pod.touched = false
		}
		if n > 0 {
			tr.SolveSummary(now, trace.SolveSummary{
				Method: "incremental", Rows: n, Cols: pod.builder.Cols(),
				Total: pod.total, Pod: pod.name,
				CellsComputed: pod.pending.CellsComputed, CellsReused: pod.pending.CellsReused,
				BatchDirty:    pod.batch.DirtyRows + pod.batch.DirtyCols,
				BatchRounds:   pod.batch.AuctionRounds,
				BatchAugments: pod.batch.CleanupAugments,
			})
		}
		agg.add(pod.pending)
		aggBatch.DirtyRows += pod.batch.DirtyRows
		aggBatch.DirtyCols += pod.batch.DirtyCols
		aggBatch.AuctionRounds += pod.batch.AuctionRounds
		aggBatch.CleanupAugments += pod.batch.CleanupAugments
		pod.pending = DeltaStats{}
		pod.batch = assign.BatchStats{}
		total += pod.total
		rows += n
		cols += pod.builder.Cols()
	}
	if rows > 0 {
		tr.SolveSummary(now, trace.SolveSummary{
			Method: "sharded", Rows: rows, Cols: cols, Total: total,
			CellsComputed: agg.CellsComputed, CellsReused: agg.CellsReused,
			BatchDirty:    aggBatch.DirtyRows + aggBatch.DirtyCols,
			BatchRounds:   aggBatch.AuctionRounds,
			BatchAugments: aggBatch.CleanupAugments,
		})
	}
	return s.placed, total, nil
}

// SelfCheck verifies every pod solver's dual invariants and the
// consistency between builders and solvers. Test and debugging aid.
func (s *Sharded) SelfCheck() error {
	for p, pod := range s.pods {
		if err := pod.solver.SelfCheck(); err != nil {
			return fmt.Errorf("pod %d: %w", p, err)
		}
		if pod.solver.Rows() != pod.builder.Rows() || pod.solver.Cols() != pod.builder.Cols() {
			return fmt.Errorf("pod %d: solver %dx%d vs builder %dx%d", p,
				pod.solver.Rows(), pod.solver.Cols(), pod.builder.Rows(), pod.builder.Cols())
		}
		for i := 0; i < pod.builder.Rows(); i++ {
			for j := 0; j < pod.builder.Cols(); j++ {
				if pod.solver.At(i, j) != pod.builder.Matrix().Value[i][j] {
					return fmt.Errorf("pod %d: cell (%d,%d) diverged", p, i, j)
				}
			}
		}
	}
	return nil
}
