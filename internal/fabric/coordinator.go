package fabric

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/sweep"
)

// ErrUnknownWorker rejects leases and reports from workers the coordinator
// has never seen (or that outlived a coordinator restart). The worker's
// recovery is to register again.
var ErrUnknownWorker = errors.New("fabric: unknown worker")

// Coordinator owns sweep grids and hands their points to registered workers
// in leased batches. The zero value is not usable; populate Eng (and
// normally Cache) and share one Coordinator between the HTTP handler and
// every Run caller. All methods are safe for concurrent use.
type Coordinator struct {
	// Eng runs sweeps locally when no worker is registered and drains
	// leftover points when the fleet goes quiet mid-sweep. Required.
	Eng *sweep.Engine
	// Cache, when non-nil, receives every accepted successful record under
	// its content key. Point it at the same store Eng uses: that is what
	// makes a post-sweep single-process run — or a cold coordinator restart
	// — serve the whole grid from cache, byte-identical.
	Cache *sweep.Cache
	// LeaseTTL is how long a worker may sit on a leased batch without
	// reporting before the points re-queue (default 5s).
	LeaseTTL time.Duration
	// Batch is the maximum points per lease (default 8).
	Batch int
	// Log receives scheduler events; slog.Default when nil.
	Log *slog.Logger

	// now overrides the clock in tests.
	now func() time.Time

	mu      sync.Mutex
	seq     int
	workers map[string]*workerInfo
	tasks   map[string]*task
	pending []*task
	leases  map[string]*lease
	stats   Stats
}

type workerInfo struct {
	name     string
	lastSeen time.Time
}

// runState is one Run call in flight: records land at their grid index and
// each index's ready channel closes exactly once, so the emit loop streams
// deterministic grid order no matter which worker finishes what when.
type runState struct {
	pts       []sweep.Point
	recs      []sweep.Record
	done      []bool
	ready     []chan struct{}
	remaining int
}

// task is one grid point awaiting a result. Its ID is the idempotency key:
// it stays resolvable across lease expiries and re-grants, and is deleted
// the moment a result is accepted, so every later report of it is a
// duplicate by construction.
type task struct {
	id     string
	st     *runState
	idx    int
	queued bool // in pending (guards against double re-queue)
}

type lease struct {
	id       string
	worker   string
	tasks    []*task
	deadline time.Time
}

func (c *Coordinator) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *Coordinator) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 5 * time.Second
}

// pollInterval is the idle-poll suggestion sent to workers: well under the
// lease TTL so an idle worker keeps itself visibly live.
func (c *Coordinator) pollInterval() time.Duration {
	p := c.leaseTTL() / 5
	if p < 10*time.Millisecond {
		p = 10 * time.Millisecond
	}
	return p
}

// liveness is the window within which a worker's last RPC counts it alive.
// Longer than the poll interval by a wide margin, so only a genuinely gone
// fleet triggers the local drain.
func (c *Coordinator) liveness() time.Duration { return 2 * c.leaseTTL() }

func (c *Coordinator) batchSize() int {
	if c.Batch > 0 {
		return c.Batch
	}
	return 8
}

func (c *Coordinator) logger() *slog.Logger {
	if c.Log != nil {
		return c.Log
	}
	return slog.Default()
}

func (c *Coordinator) initLocked() {
	if c.workers == nil {
		c.workers = make(map[string]*workerInfo)
		c.tasks = make(map[string]*task)
		c.leases = make(map[string]*lease)
	}
}

// Register admits a worker and returns its ID plus the coordinator's lease
// and poll tuning.
func (c *Coordinator) Register(name string) RegisterResponse {
	now := c.clock()
	c.mu.Lock()
	c.initLocked()
	c.seq++
	id := fmt.Sprintf("w%d", c.seq)
	c.workers[id] = &workerInfo{name: name, lastSeen: now}
	n := len(c.workers)
	c.mu.Unlock()
	c.logger().Info("fabric worker registered", "worker", id, "name", name, "fleet", n)
	return RegisterResponse{
		Worker:  id,
		LeaseMS: c.leaseTTL().Milliseconds(),
		PollMS:  c.pollInterval().Milliseconds(),
		Batch:   c.batchSize(),
	}
}

// Lease grants the polling worker up to Batch pending points, or an empty
// response when nothing is queued.
func (c *Coordinator) Lease(workerID string) (LeaseResponse, error) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	w := c.workers[workerID]
	if w == nil {
		return LeaseResponse{}, ErrUnknownWorker
	}
	w.lastSeen = now
	c.expireLocked(now)
	batch := c.popLocked(c.batchSize())
	if len(batch) == 0 {
		return LeaseResponse{}, nil
	}
	c.seq++
	l := &lease{
		id:       fmt.Sprintf("l%d", c.seq),
		worker:   workerID,
		tasks:    batch,
		deadline: now.Add(c.leaseTTL()),
	}
	c.leases[l.id] = l
	c.stats.Granted++
	resp := LeaseResponse{Lease: l.id, Points: make([]LeasePoint, len(batch))}
	for i, t := range batch {
		resp.Points[i] = LeasePoint{Task: t.id, Point: t.st.pts[t.idx]}
	}
	return resp, nil
}

// Report accepts measured records. Completion is first-write-wins per task:
// results for already-completed (or unknown) tasks are counted as
// duplicates and discarded, which is what makes duplicated report RPCs and
// late reports after a re-lease idempotent. A result whose record does not
// carry the leased point is rejected outright (the point stays pending), so
// a confused worker cannot corrupt the grid. Accepted successful records
// are merged into the cache under their content key.
func (c *Coordinator) Report(req ReportRequest) (ReportResponse, error) {
	now := c.clock()
	c.mu.Lock()
	w := c.workers[req.Worker]
	if w == nil {
		c.mu.Unlock()
		return ReportResponse{}, ErrUnknownWorker
	}
	w.lastSeen = now
	c.stats.Reports++
	c.expireLocked(now)
	var resp ReportResponse
	var merge []sweep.Record
	var landed []*task
	for _, r := range req.Results {
		t := c.tasks[r.Task]
		if t == nil || t.st.done[t.idx] {
			resp.Duplicates++
			c.stats.Duplicates++
			continue
		}
		if r.Record.Point != t.st.pts[t.idx] {
			c.logger().Warn("fabric report point mismatch, dropped",
				"worker", req.Worker, "task", r.Task,
				"want", t.st.pts[t.idx], "got", r.Record.Point)
			continue
		}
		c.completeLocked(t, r.Record)
		landed = append(landed, t)
		resp.Accepted++
		c.stats.Accepted++
		if r.Record.Err == "" && r.Record.Key != "" {
			merge = append(merge, r.Record)
		}
	}
	if l := c.leases[req.Lease]; l != nil {
		c.pruneLeaseLocked(req.Lease, l)
	}
	c.mu.Unlock()
	// Cache merge is file IO; do it off the scheduler lock. Put is
	// content-keyed and atomic, so racing a worker writing the same key is
	// harmless.
	for _, rec := range merge {
		if err := c.Cache.Put(rec.Key, &rec.Metrics); err != nil {
			c.logger().Warn("fabric cache merge failed", "key", rec.Key, "error", err)
		}
	}
	for _, t := range landed {
		t.publish()
	}
	return resp, nil
}

// completeLocked lands an accepted record and retires its task. The caller
// publishes it once the record is in the cache, so a Run that has returned
// never leaves a streamed record unmerged.
func (c *Coordinator) completeLocked(t *task, rec sweep.Record) {
	st := t.st
	st.recs[t.idx] = rec
	st.done[t.idx] = true
	st.remaining--
	delete(c.tasks, t.id)
	if st.remaining == 0 {
		// The run is over; drop any of its re-queued tasks still pending.
		keep := c.pending[:0]
		for _, p := range c.pending {
			if !p.st.done[p.idx] {
				keep = append(keep, p)
			}
		}
		c.pending = keep
	}
}

// publish hands a completed task's record to its Run's emit loop.
func (t *task) publish() { close(t.st.ready[t.idx]) }

// popLocked takes up to max undone tasks off the front of the queue.
func (c *Coordinator) popLocked(max int) []*task {
	var out []*task
	i := 0
	for ; i < len(c.pending) && len(out) < max; i++ {
		t := c.pending[i]
		t.queued = false
		if t.st.done[t.idx] {
			continue
		}
		out = append(out, t)
	}
	c.pending = c.pending[i:]
	return out
}

// expireLocked re-queues the unfinished points of every lease past its
// deadline (at the front: stolen work is the oldest, emit order is waiting
// on it) and garbage-collects leases whose points all completed.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		undone := l.tasks[:0]
		for _, t := range l.tasks {
			if !t.st.done[t.idx] {
				undone = append(undone, t)
			}
		}
		l.tasks = undone
		if len(undone) == 0 {
			delete(c.leases, id)
			continue
		}
		if !now.After(l.deadline) {
			continue
		}
		requeue := make([]*task, 0, len(undone))
		for _, t := range undone {
			if !t.queued {
				t.queued = true
				requeue = append(requeue, t)
			}
		}
		c.pending = append(requeue, c.pending...)
		c.stats.Expired++
		delete(c.leases, id)
		c.logger().Info("fabric lease expired, points re-queued",
			"lease", id, "worker", l.worker, "points", len(requeue))
	}
}

// pruneLeaseLocked drops completed tasks from a lease, deleting it once
// empty so a fully-reported batch stops counting as leased.
func (c *Coordinator) pruneLeaseLocked(id string, l *lease) {
	undone := l.tasks[:0]
	for _, t := range l.tasks {
		if !t.st.done[t.idx] {
			undone = append(undone, t)
		}
	}
	l.tasks = undone
	if len(undone) == 0 {
		delete(c.leases, id)
	}
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Workers = len(c.workers)
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.liveness() {
			s.LiveWorkers++
		}
	}
	for _, t := range c.pending {
		if !t.st.done[t.idx] {
			s.Pending++
		}
	}
	for _, l := range c.leases {
		for _, t := range l.tasks {
			if !t.st.done[t.idx] {
				s.Leased++
			}
		}
	}
	return s
}

// Run measures every point of the grid, like sweep.Engine.Run and with the
// same contract: emit (when non-nil) is called from this goroutine in
// deterministic grid order as each prefix completes, the returned records
// are in grid order, and per-point failures are joined into the returned
// error. With no workers registered it delegates to the local engine — the
// exact single-process path. Otherwise points are queued for lease and a
// watchdog steals the remainder back for local measurement if the whole
// fleet goes quiet.
func (c *Coordinator) Run(spec *sweep.Spec, emit func(sweep.Record)) ([]sweep.Record, error) {
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.initLocked()
	if len(c.workers) == 0 || len(pts) == 0 {
		c.stats.LocalRuns++
		c.mu.Unlock()
		return c.Eng.Run(spec, emit)
	}
	st := &runState{
		pts:       pts,
		recs:      make([]sweep.Record, len(pts)),
		done:      make([]bool, len(pts)),
		ready:     make([]chan struct{}, len(pts)),
		remaining: len(pts),
	}
	queued := make([]*task, len(pts))
	for i := range pts {
		st.ready[i] = make(chan struct{})
		c.seq++
		t := &task{id: fmt.Sprintf("t%d", c.seq), st: st, idx: i, queued: true}
		c.tasks[t.id] = t
		queued[i] = t
	}
	c.pending = append(c.pending, queued...)
	c.mu.Unlock()

	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		c.watch(st, stop)
	}()

	var errs []error
	for i := range pts {
		<-st.ready[i]
		r := st.recs[i]
		if emit != nil {
			emit(r)
		}
		if r.Err != "" {
			errs = append(errs, fmt.Errorf("%s n=%d %s: %s",
				r.Name, r.N, r.Config(), r.Err))
		}
	}
	close(stop)
	watch.Wait()
	return st.recs, errors.Join(errs...)
}

// watch keeps one Run live: it expires stale leases between worker polls
// and, when no worker has contacted the coordinator within the liveness
// window while points are still pending, measures batches on the local
// engine. Completion goes through the same first-write-wins path as worker
// reports, so a worker racing back to life stays harmless.
func (c *Coordinator) watch(st *runState, stop <-chan struct{}) {
	tick := c.leaseTTL() / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		now := c.clock()
		c.mu.Lock()
		if st.remaining == 0 {
			c.mu.Unlock()
			return
		}
		c.expireLocked(now)
		live := false
		for _, w := range c.workers {
			if now.Sub(w.lastSeen) <= c.liveness() {
				live = true
				break
			}
		}
		var batch []*task
		if !live {
			batch = c.popLocked(c.batchSize())
			c.stats.LocalPoints += len(batch)
		}
		c.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		c.logger().Info("fabric fleet quiet, draining locally", "points", len(batch))
		for _, t := range batch {
			rec := c.Eng.Measure(t.st.pts[t.idx])
			c.mu.Lock()
			accepted := false
			if tt := c.tasks[t.id]; tt != nil && !tt.st.done[tt.idx] {
				c.completeLocked(tt, rec)
				c.stats.Accepted++
				accepted = true
			} else {
				c.stats.Duplicates++
			}
			c.mu.Unlock()
			if !accepted {
				continue
			}
			// Eng.Measure already stored the point when Cache is the
			// engine's own store; Put again covers a split configuration.
			if rec.Err == "" && rec.Key != "" {
				_ = c.Cache.Put(rec.Key, &rec.Metrics)
			}
			t.publish()
		}
	}
}
