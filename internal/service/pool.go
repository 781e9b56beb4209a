package service

import (
	"context"
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

// pool is a fixed-size worker pool fed by a bounded queue. A submission
// without a wait channel never blocks: when the queue is full the caller
// gets ErrQueueFull and decides what to do (the daemon sheds the
// request). One with a wait channel waits for a place instead, and
// waiters come first: a place a worker frees goes to a waiting
// submission before any new fail-fast one.
type pool struct {
	run    func(*Job)
	wg     sync.WaitGroup
	queue  chan *Job
	places chan struct{} // one token per queued job: taken before the send, returned on receipt
	stop   chan struct{} // closed when shutdown starts: wakes every waiter
	closed atomic.Bool
	drain  sync.Once // takes every place, then closes queue
}

func newPool(workers, depth int, run func(*Job)) *pool {
	p := &pool{run: run, queue: make(chan *Job, depth), places: make(chan struct{}, depth), stop: make(chan struct{})}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.queue {
				<-p.places
				p.run(j)
			}
		}()
	}
	return p
}

// submit enqueues the job. With a nil wait it fails fast with
// ErrQueueFull; otherwise it blocks until a place frees, wait closes
// (ErrQueueFull) or shutdown starts (ErrClosed). The job's deadline
// starts once it holds its place, so time spent waiting for one is not
// taken from its budget.
func (p *pool) submit(j *Job, wait <-chan struct{}) error {
	if p.closed.Load() {
		return ErrClosed
	}
	select {
	case p.places <- struct{}{}:
	default:
		if wait == nil {
			return ErrQueueFull
		}
		select {
		case p.places <- struct{}{}:
		case <-wait:
			return ErrQueueFull
		case <-p.stop:
			return ErrClosed
		}
	}
	if j.timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(j.ctx, j.timeout) // no other goroutine sees j yet
	}
	p.queue <- j // never blocks, nor is closed: every queued job holds one of depth places
	return nil
}

// depth is the number of jobs waiting in the queue (not yet picked up by
// a worker).
func (p *pool) depth() int { return len(p.queue) }

// beginShutdown rejects new submissions and wakes every waiting one.
func (p *pool) beginShutdown() {
	if !p.closed.Swap(true) {
		close(p.stop)
	}
}

// shutdown rejects new submissions, wakes every waiting one, drains the
// queue, and waits for in-flight jobs. Queued jobs still run; cancel
// them first for a fast stop.
func (p *pool) shutdown() {
	p.beginShutdown()
	p.drain.Do(func() {
		// Holding every place, no send is in flight or can start, and
		// every queued job has been received: the queue can close.
		for range cap(p.places) {
			p.places <- struct{}{}
		}
		close(p.queue)
	})
	p.wg.Wait()
}
