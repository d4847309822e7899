package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/sweep"
)

// Kind distinguishes the two job shapes the server accepts.
type Kind string

const (
	// KindSweep is a whole grid (POST /v1/sweeps).
	KindSweep Kind = "sweep"
	// KindRun is a single machine point (POST /v1/runs).
	KindRun Kind = "run"
)

// State is the job lifecycle: submitted → running → done | failed.
type State string

const (
	StateSubmitted State = "submitted" // accepted, waiting for a job slot
	StateRunning   State = "running"   // executing on the engine
	StateDone      State = "done"      // every point measured successfully
	StateFailed    State = "failed"    // the job (or at least one point) errored
)

// Job is one submitted unit of work. Records accumulate as the engine emits
// them — in deterministic grid order — so results can stream while the job
// still runs.
type Job struct {
	// ID addresses the job in the API; IDs are unique per server process.
	ID string
	// Kind is sweep or run.
	Kind Kind
	// Created is the submission time.
	Created time.Time

	spec  *sweep.Spec  // the normalised grid (sweep jobs)
	point *sweep.Point // the single point (run jobs)
	grid  int          // points in the grid (1 for runs)

	mu       sync.Mutex
	state    State
	errMsg   string
	started  time.Time
	finished time.Time
	recs     []sweep.Record
	wake     chan struct{} // closed and replaced on every state/record change
}

func newJob(id string, kind Kind, spec *sweep.Spec, point *sweep.Point, grid int) *Job {
	return &Job{
		ID: id, Kind: kind, Created: time.Now(),
		spec: spec, point: point, grid: grid,
		state: StateSubmitted, wake: make(chan struct{}),
	}
}

// signal wakes every watcher. Callers hold j.mu.
func (j *Job) signal() {
	close(j.wake)
	j.wake = make(chan struct{})
}

func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = time.Now()
	j.signal()
}

func (j *Job) append(r sweep.Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, r)
	j.signal()
}

// finish moves the job to done or failed. err carries whole-job failures; a
// sweep whose points individually failed arrives here with the engine's
// joined per-point error.
func (j *Job) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.state, j.errMsg = StateFailed, err.Error()
	} else {
		j.state = StateDone
	}
	j.signal()
}

// terminal reports whether the job has finished (done or failed).
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
}

// watch returns the records past from, whether the job has finished, and a
// channel that closes on the next change — the streaming primitive behind
// GET /v1/sweeps/{id}/results. The returned slice aliases the job's records,
// which are append-only, so reading it without the lock is safe.
func (j *Job) watch(from int) (news []sweep.Record, finished bool, wake <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.recs) {
		news = j.recs[from:]
	}
	return news, j.state == StateDone || j.state == StateFailed, j.wake
}

// Status is the wire form of a job, returned by the status and list
// endpoints.
type Status struct {
	ID       string     `json:"id"`
	Kind     Kind       `json:"kind"`
	State    State      `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Points is the grid size; Done is how many records exist so far.
	Points int    `json:"points"`
	Done   int    `json:"done"`
	Error  string `json:"error,omitempty"`
	// Results is the JSONL endpoint for sweep jobs.
	Results string `json:"results,omitempty"`
	// Record is the measured point of a run job, once available.
	Record *sweep.Record `json:"record,omitempty"`
}

func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, Kind: j.Kind, State: j.state, Created: j.Created,
		Points: j.grid, Done: len(j.recs), Error: j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.Kind == KindSweep {
		st.Results = "/v1/sweeps/" + j.ID + "/results"
	} else if len(j.recs) > 0 {
		r := j.recs[0]
		st.Record = &r
	}
	return st
}

// Runner executes sweep grids for the manager: sweep.Engine.Run's exact
// contract (deterministic grid-order emit, records in grid order, joined
// per-point errors). The engine itself is the default; the fabric
// coordinator substitutes the distributed path, sharding grids across
// registered workers and falling back to the engine with zero workers.
type Runner interface {
	Run(spec *sweep.Spec, emit func(sweep.Record)) ([]sweep.Record, error)
}

// Manager owns the job store and executes jobs on the shared sweep engine.
// At most maxJobs execute concurrently (the rest queue in StateSubmitted),
// and the history is bounded: once the store exceeds maxHistory jobs, the
// oldest finished jobs are evicted and their IDs return 404.
type Manager struct {
	eng        *sweep.Engine
	runner     Runner
	log        *slog.Logger
	maxHistory int
	sem        chan struct{}

	// closing is closed by Drain: queued jobs that have not started yet
	// fast-fail instead of running, so shutdown is bounded by the jobs
	// already in flight.
	closing   chan struct{}
	closeOnce sync.Once

	mu       sync.Mutex
	seq      int
	jobs     map[string]*Job
	order    []string      // submission order, for listing and eviction
	inflight int           // exec goroutines not yet finished
	draining bool          // Drain has begun: new submissions fail fast
	idle     chan struct{} // created by Drain, closed when inflight hits 0
}

// NewManager wires a manager over the engine. maxHistory and maxJobs
// default to 256 and 2 when non-positive.
func NewManager(eng *sweep.Engine, log *slog.Logger, maxHistory, maxJobs int) *Manager {
	if maxHistory < 1 {
		maxHistory = 256
	}
	if maxJobs < 1 {
		maxJobs = 2
	}
	if log == nil {
		log = slog.Default()
	}
	return &Manager{
		eng: eng, runner: eng, log: log, maxHistory: maxHistory,
		sem: make(chan struct{}, maxJobs), jobs: make(map[string]*Job),
		closing: make(chan struct{}),
	}
}

// SubmitSweep queues a grid job for a spec (normalised here if the caller
// has not already).
func (m *Manager) SubmitSweep(spec *sweep.Spec) (*Job, error) {
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	return m.submit(KindSweep, spec, nil, len(pts)), nil
}

// SubmitRun queues a single-point job.
func (m *Manager) SubmitRun(p sweep.Point) *Job {
	return m.submit(KindRun, nil, &p, 1)
}

func (m *Manager) submit(kind Kind, spec *sweep.Spec, point *sweep.Point, grid int) *Job {
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("%s-%d", kind, m.seq)
	j := newJob(id, kind, spec, point, grid)
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.evictLocked()
	if m.draining {
		// Submission raced the drain: fail the job without spawning exec.
		// (The old sync.WaitGroup bookkeeping could Add after Drain's Wait
		// had started on a zero counter, which is a documented WaitGroup
		// misuse; the inflight counter is checked under the same lock that
		// sets draining, so the race is gone.)
		m.mu.Unlock()
		j.finish(errors.New("server shutting down before the job started"))
		m.log.Info("job rejected at shutdown", "id", id, "kind", kind)
		return j
	}
	m.inflight++
	m.mu.Unlock()
	m.log.Info("job submitted", "id", id, "kind", kind, "points", grid)
	go m.exec(j)
	return j
}

// jobDone retires one exec goroutine — on every exit path, so the job it
// just finished becomes evictable — and wakes the drain once the last one
// leaves.
func (m *Manager) jobDone() {
	m.mu.Lock()
	m.inflight--
	m.evictLocked()
	if m.draining && m.inflight == 0 && m.idle != nil {
		close(m.idle)
		m.idle = nil
	}
	m.mu.Unlock()
}

// evictLocked drops the oldest finished jobs beyond the history bound.
// Unfinished jobs are never evicted, so the store can transiently exceed the
// bound while that many jobs are in flight.
func (m *Manager) evictLocked() {
	excess := len(m.order) - m.maxHistory
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if excess > 0 && m.jobs[id].terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

func (m *Manager) exec(j *Job) {
	defer m.jobDone()
	select {
	case m.sem <- struct{}{}:
	case <-m.closing:
		// Queued at shutdown: fail fast rather than hold the drain hostage
		// to work that never started.
		j.finish(errors.New("server shutting down before the job started"))
		return
	}
	defer func() { <-m.sem }()
	j.setRunning()
	var err error
	if j.Kind == KindRun {
		rec := m.eng.Measure(*j.point)
		if rec.RequestedN != 0 {
			// The engine clamped the dataset size up to the kernel's
			// minimum; say so instead of silently serving a different point.
			m.log.Info("dataset size clamped", "id", j.ID,
				"kernel", rec.Name, "requestedN", rec.RequestedN, "effectiveN", rec.N)
		}
		j.append(rec)
		if rec.Err != "" {
			err = errors.New(rec.Err)
		}
	} else {
		_, err = m.runner.Run(j.spec, j.append)
	}
	j.finish(err)
	st := j.status()
	m.log.Info("job finished", "id", j.ID, "state", st.State, "points", st.Points, "error", st.Error)
}

// Get returns the stored job, if it exists and has not been evicted.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns the stored jobs' statuses, newest first.
func (m *Manager) Jobs() []Status {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	jobs := make([]*Job, len(order))
	for i, id := range order {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	sts := make([]Status, 0, len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- {
		sts = append(sts, jobs[i].status())
	}
	return sts
}

// Count returns the number of stored jobs without snapshotting them.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.order)
}

// Drain blocks until every submitted job has finished or the context
// expires — the graceful-shutdown hook, called after the HTTP listener has
// stopped accepting submissions. Jobs already executing run to completion;
// jobs still queued fail fast, so the drain is bounded by the in-flight
// work.
func (m *Manager) Drain(ctx context.Context) error {
	m.closeOnce.Do(func() { close(m.closing) })
	m.mu.Lock()
	m.draining = true
	if m.inflight == 0 {
		m.mu.Unlock()
		return nil
	}
	if m.idle == nil {
		m.idle = make(chan struct{})
	}
	idle := m.idle
	m.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
