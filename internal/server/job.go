package server

// Job lifecycle and progress fan-out. A job is created queued, becomes
// running when a worker picks it up, and terminates done, failed, or
// canceled. Progress events append to an ordered log; stream
// subscribers replay the log from any index and are kicked (coalesced,
// non-blocking) when it grows, so a slow reader can never stall the
// simulation worker.

import (
	"sync"

	"svtsim/internal/exp"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// ProgressEvent is one streamed NDJSON record: either a job-step event
// (Stage/Done/Total from the experiment layer) or a terminal state
// marker (State set, Stage empty).
type ProgressEvent struct {
	Seq    int    `json:"seq"`
	Stage  string `json:"stage,omitempty"`
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
	Detail string `json:"detail,omitempty"`
	State  string `json:"state,omitempty"`
	Error  string `json:"error,omitempty"`
}

// JobStatus is the /v1/jobs/{id} body.
type JobStatus struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
}

// SubmitResponse is the POST /v1/jobs body: the status of the job the
// submission was admitted as, joined, or answered from the cache by.
type SubmitResponse = JobStatus

type job struct {
	id     string
	digest string
	req    *Request

	mu     sync.Mutex
	state  string
	cached bool
	err    string
	events []ProgressEvent
	subs   map[chan struct{}]struct{}
	result *cacheEntry
}

func newJob(id string, req *Request, digest string) *job {
	return &job{
		id: id, digest: digest, req: req,
		state: StateQueued,
		subs:  make(map[chan struct{}]struct{}),
	}
}

// appendLocked stamps ev's sequence number, appends it to the log, and
// kicks every subscriber without blocking. j.mu must be held.
func (j *job) appendLocked(ev ProgressEvent) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // already kicked; the reader will drain the log
		}
	}
}

// progressFunc adapts the experiment layer's progress callbacks.
func (j *job) progressFunc() exp.ProgressFunc {
	return func(e exp.ProgressEvent) {
		j.mu.Lock()
		j.appendLocked(ProgressEvent{Stage: e.Stage, Done: e.Done, Total: e.Total, Detail: e.Detail})
		j.mu.Unlock()
	}
}

// setRunning marks the job picked up by a worker.
func (j *job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
}

// finish terminates the job: state done with a result, or failed /
// canceled with an error message. The terminal marker joins the log in
// the same critical section that sets the state, so a reader that sees
// the state terminal also sees the log's last event.
func (j *job) finish(state string, result *cacheEntry, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.result, j.err = state, result, errMsg
	j.appendLocked(ProgressEvent{State: state, Error: errMsg})
}

// snapshot returns the job's public status.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, Digest: j.digest, State: j.state, Cached: j.cached, Error: j.err}
}

// subscribe registers a kick channel; unsubscribe removes it.
func (j *job) subscribe() (kick chan struct{}, unsubscribe func()) {
	kick = make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[kick] = struct{}{}
	j.mu.Unlock()
	return kick, func() {
		j.mu.Lock()
		delete(j.subs, kick)
		j.mu.Unlock()
	}
}

// eventsFrom copies the log suffix starting at index from, and reports
// whether the job has reached a terminal state. Once it has, the copy
// ends with the terminal event.
func (j *job) eventsFrom(from int) (evs []ProgressEvent, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// outcome reports the job's state and error, and its result entry (nil
// until done).
func (j *job) outcome() (state, errMsg string, result *cacheEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.result
}
