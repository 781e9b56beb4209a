package service

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by Submit when the bounded job queue is at
// capacity. The HTTP layer maps it to 429 Too Many Requests with a
// Retry-After header — explicit backpressure instead of unbounded
// buffering.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: shutting down")

// pool is a fixed-size worker pool fed by a bounded queue. Submission
// never blocks: when the queue is full the caller gets ErrQueueFull and
// decides what to do (the daemon sheds the request).
type pool struct {
	run    func(*Job)
	wg     sync.WaitGroup
	mu     sync.RWMutex // orders closing against sends on queue
	queue  chan *Job
	closed atomic.Bool
}

func newPool(workers, depth int, run func(*Job)) *pool {
	p := &pool{run: run, queue: make(chan *Job, depth)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.queue {
				p.run(j)
			}
		}()
	}
	return p
}

// trySubmit enqueues the job or fails fast.
func (p *pool) trySubmit(j *Job) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed.Load() {
		return ErrClosed
	}
	select {
	case p.queue <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// depth is the number of jobs waiting in the queue (not yet picked up by
// a worker).
func (p *pool) depth() int { return len(p.queue) }

// shutdown rejects new submissions, drains the queue, and waits for
// in-flight jobs. Queued jobs still run; cancel them first for a fast
// stop.
func (p *pool) shutdown() {
	p.mu.Lock()
	if !p.closed.Swap(true) {
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
