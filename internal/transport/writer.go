package transport

import (
	"net"
	"runtime"
	"sync"
)

// A frameWriter is one connection's send side. At any instant the wire
// has at most one owner — a lone sender writing its own frame, or the
// flusher goroutine writing everybody else's — so frames never
// interleave and the preamble, built into whichever frame is first,
// always leads.
//
// A frame sent while nothing else is outstanding on the connection (the
// caller says so: alone) and the wire is free is written by its sender at
// once. Any other frame is appended to the queue; the flusher, started
// by the first such frame, yields the processor once so that senders
// already runnable append theirs too, then writes the lot in one Write —
// and keeps writing what arrived meanwhile until the queue is empty.
//
// Queuing must not let a sender run ahead of the wire: when every sender
// wrote for itself, a server could not answer faster than its replies
// left, and a scheduler's queue — where the policy decides — stayed the
// place requests wait. So a connection holds at most maxQueued frames
// that were accepted and are not yet written, queued or in the flusher's
// hands alike; a sender that finds as many waits for a Write to return.
type frameWriter struct {
	conn net.Conn
	// perFrame: a faulted connection charges its delay, jitter draw and
	// loss roll per Write, so it is handed one frame per Write, in send
	// order, and faults keep costing what they cost per message.
	perFrame bool
	// onFail runs once, with no lock held, after a write failed and just
	// before the connection is closed for it.
	onFail  func(error)
	flushFn func() // w.flush, bound once so starting it allocates nothing

	mu        sync.Mutex
	room      sync.Cond // the flusher wrote a batch, or the connection failed
	busy      bool      // the wire has an owner
	hello     bool      // the preamble is written or queued
	queue     []byte    // frames waiting for the flusher
	ends      []int     // each queued frame's end offset; kept only when perFrame
	unwritten int       // frames in queue, plus those in the batch being written
	err       error     // the write error that killed the connection

	// Touched by the wire's owner only.
	direct []byte // the lone sender's frame
	spare  []byte // the queue's other half
	small  int    // writes ≤ keepBuf in a row from a buffer larger than that
}

// maxQueued is one client's default window (Lustre's max_rpcs_in_flight,
// workload.Pattern's MaxInflight): a connection at that depth never
// waits for room, a deeper one feels the wire as it always did.
const maxQueued = 8

func newFrameWriter(conn net.Conn, onFail func(error)) *frameWriter {
	w := &frameWriter{conn: conn, onFail: onFail}
	w.room.L = &w.mu
	_, w.perFrame = conn.(*faultedConn)
	w.flushFn = w.flush
	return w
}

// send ships one frame — req when non-nil, otherwise rep — under seq.
// A nil return means written or queued; a queued frame's write error
// surfaces through onFail and the closed connection instead.
func (w *frameWriter) send(alone bool, seq uint64, req *Request, rep *Reply) error {
	var err error
	if req != nil {
		err = checkFrame(requestFixed, req.JobID, req.Payload)
	} else {
		err = checkFrame(replyFixed, rep.Err, rep.Payload)
	}
	if err != nil {
		return err
	}

	w.mu.Lock()
	for w.unwritten >= maxQueued && w.err == nil {
		w.room.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	direct := alone && !w.busy
	buf := w.queue
	if direct {
		buf = w.direct[:0]
	}
	if !w.hello {
		w.hello = true
		buf = appendPreamble(buf)
	}
	if req != nil {
		buf = appendRequest(buf, seq, req)
	} else {
		buf = appendReply(buf, seq, rep)
	}
	if !direct {
		w.queue = buf
		w.unwritten++
		if w.perFrame {
			w.ends = append(w.ends, len(buf))
		}
		start := !w.busy
		w.busy = true
		w.mu.Unlock()
		if start {
			go w.flushFn()
		}
		return nil
	}
	w.busy = true
	w.mu.Unlock()
	if _, err := w.conn.Write(buf); err != nil {
		w.fail(err)
		return err
	}
	w.direct = w.reuse(buf)
	// Frames queued behind this one pass the wire on to the flusher.
	w.mu.Lock()
	handOff := len(w.queue) > 0
	w.busy = handOff
	w.mu.Unlock()
	if handOff {
		go w.flushFn()
	}
	return nil
}

// flush owns the wire until the queue is empty.
func (w *frameWriter) flush() {
	runtime.Gosched()
	var ends []int
	written := 0
	for {
		w.mu.Lock()
		if written > 0 {
			w.unwritten -= written
			// One waiter per frame written, not all of them: a window deeper
			// than the bound keeps dozens of senders waiting here, and waking
			// every one for room that takes a few costs the processor the
			// rest of the connection needs.
			for i := 0; i < written; i++ {
				w.room.Signal()
			}
		}
		if len(w.queue) == 0 || w.err != nil {
			w.busy = false
			w.mu.Unlock()
			return
		}
		batch := w.queue
		written = w.unwritten // the last batch is accounted for: all of these are in this one
		w.queue = w.spare[:0]
		ends, w.ends = w.ends, ends[:0]
		w.mu.Unlock()

		var err error
		if w.perFrame {
			from := 0
			for _, to := range ends {
				if _, err = w.conn.Write(batch[from:to]); err != nil {
					break
				}
				from = to
			}
		} else {
			_, err = w.conn.Write(batch)
		}
		if err != nil {
			w.fail(err)
			return
		}
		w.spare = w.reuse(batch)
	}
}

// reuse returns what the wire's owner keeps of the buffer it just wrote:
// all of it, unless a large frame grew it and releaseAfter writes in a
// row since had no use for its size.
func (w *frameWriter) reuse(buf []byte) []byte {
	if len(buf) > keepBuf {
		w.small = 0
	} else if cap(buf) > keepBuf {
		if w.small++; w.small >= releaseAfter {
			return nil
		}
	}
	return buf
}

// fail poisons the connection after a failed write: a stream that lost
// part of a frame cannot carry another. Closing it makes the read side
// exit, and with it the peer's pending calls fail fast — including the
// calls whose frames another goroutine was writing on their behalf.
func (w *frameWriter) fail(err error) {
	w.mu.Lock()
	first := w.err == nil
	if first {
		w.err = err
	}
	w.busy = false
	w.room.Broadcast()
	w.mu.Unlock()
	if first {
		// The owner hears of it before the read side can: closing first
		// would let the read loop's "closed" race the write error to the
		// pending calls.
		if w.onFail != nil {
			w.onFail(err)
		}
		w.conn.Close()
	}
}

// opened reports whether this side's preamble has been written or queued.
func (w *frameWriter) opened() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hello
}
