package fuse

// frameWriter drains one connection's outbound frames through a single
// goroutine. Callers (request handlers on the server, calling goroutines
// on the client) enqueue frames instead of taking a write mutex; the
// writer coalesces everything queued at the moment it wakes into ONE
// vectored net.Buffers write — header vectors and payload vectors
// interleaved, payloads never copied into a frame buffer. On a TCP or
// unix-socket connection that is one writev(2) for the whole batch, so a
// small-op storm that used to cost a syscall (and a mutex handoff) per
// reply costs a syscall per batch.
//
// The queue is bounded: a full queue makes enqueuers wait with their
// request context, so a slow-reading client turns into backpressure that
// feeds the existing deadline admission (a handler stuck on send() sees
// its deadline expire exactly like one stuck in the file system) instead
// of unbounded reply buffering.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
)

// outFrame is one queued frame: hdr is the 4-byte length prefix plus the
// encoded header fields (pooled), payload the optional zero-copy tail,
// release the hook returning pooled buffers once the frame is flushed or
// dropped.
type outFrame struct {
	hdr     []byte
	payload []byte
	release func()
}

func (f *outFrame) done() {
	putBuf(f.hdr)
	if f.release != nil {
		f.release()
	}
}

// sendQueueDepth bounds frames queued per connection before enqueuers
// block (backpressure), and maxBatchFrames bounds how many frames one
// vectored write may coalesce.
const (
	sendQueueDepth = 256
	maxBatchFrames = 64
)

// errWriterClosed is returned by send on a dead connection.
var errWriterClosed = errors.New("fuse: connection writer closed")

type frameWriter struct {
	conn ioWriter

	ch   chan outFrame
	dead chan struct{} // closed when the writer must stop (conn error or teardown)
	once sync.Once
	wg   sync.WaitGroup

	// flushed, when non-nil, observes each completed write: the number of
	// frames it carried and its byte count.
	flushed func(frames, bytes int)
}

// ioWriter is the minimal connection surface the writer needs, so tests
// can substitute non-net writers.
type ioWriter = interface{ Write(p []byte) (int, error) }

func newFrameWriter(conn ioWriter, flushed func(frames, bytes int)) *frameWriter {
	w := &frameWriter{
		conn:    conn,
		ch:      make(chan outFrame, sendQueueDepth),
		dead:    make(chan struct{}),
		flushed: flushed,
	}
	w.wg.Add(1)
	go w.loop()
	return w
}

// send enqueues one frame. It blocks when the queue is full —
// backpressure — until space frees, the writer dies, or ctx expires; on
// any failure the frame's buffers are released and the frame is dropped
// (the connection is dying or the request has been abandoned).
func (w *frameWriter) send(ctx context.Context, f outFrame) error {
	select {
	case <-w.dead:
		f.done()
		return errWriterClosed
	default:
	}
	// Fast path: queue has room — enqueue even if ctx already expired. A
	// request that timed out still owes its caller the ETIMEDOUT reply;
	// ctx only bounds how long to WAIT for space, it does not veto an
	// immediate enqueue.
	select {
	case w.ch <- f:
		return nil
	default:
	}
	select {
	case w.ch <- f:
		return nil
	case <-w.dead:
		f.done()
		return errWriterClosed
	case <-ctx.Done():
		f.done()
		return ctx.Err()
	}
}

// stop kills the writer and drains anything still queued. Call only
// after every sender is done (the server waits for its inflight group,
// the client holds no concurrent senders once closed).
func (w *frameWriter) stop() {
	w.once.Do(func() { close(w.dead) })
	w.wg.Wait()
	for {
		select {
		case f := <-w.ch:
			f.done()
		default:
			return
		}
	}
}

// loop is the single writer goroutine: block for one frame, then sweep
// whatever else is queued (up to maxBatchFrames) into the same vectored
// write.
func (w *frameWriter) loop() {
	defer w.wg.Done()
	var bufs net.Buffers
	var batch [maxBatchFrames]outFrame
	for {
		var first outFrame
		select {
		case first = <-w.ch:
		case <-w.dead:
			return
		}
		n := 0
		batch[n] = first
		n++
		// One scheduler yield before the sweep: the send that woke this
		// goroutine usually races ahead of its siblings (a storm's other
		// handlers are runnable but haven't enqueued yet), and sweeping
		// immediately would find an empty queue and degrade to per-frame
		// writes. Yielding lets every runnable producer enqueue first — a
		// bounded, load-proportional batching delay (no timer).
		runtime.Gosched()
	fill:
		for n < maxBatchFrames {
			select {
			case f := <-w.ch:
				batch[n] = f
				n++
			default:
				break fill
			}
		}
		bufs = bufs[:0]
		total := 0
		for i := 0; i < n; i++ {
			bufs = append(bufs, batch[i].hdr)
			total += len(batch[i].hdr)
			if len(batch[i].payload) > 0 {
				bufs = append(bufs, batch[i].payload)
				total += len(batch[i].payload)
			}
		}
		_, err := bufs.WriteTo(w.conn)
		for i := 0; i < n; i++ {
			batch[i].done()
		}
		if err != nil {
			// The connection is broken: stop accepting, release stragglers.
			// The read loop notices the same breakage and tears the
			// connection down; senders unblock via the dead channel.
			w.once.Do(func() { close(w.dead) })
			return
		}
		if w.flushed != nil {
			w.flushed(n, total)
		}
	}
}

// requestFrame builds a pooled outFrame for req: the header (length
// prefix included) in a pooled buffer, the payload vectored zero-copy.
// payload must stay immutable until the writer flushes the frame.
func requestFrame(req *request, payload []byte, release func()) outFrame {
	est := 68 + len(req.Path) + len(req.Path2) + len(req.Tenant) + 12*len(req.Extents)
	hdr := getBuf(est)[:0]
	hdr = append(hdr, 0, 0, 0, 0)
	req.Data = nil // header encodes the payload length explicitly below
	hdr = appendRequest(hdr, req)
	// Patch the payload length (last u32 of the header) and frame length.
	putU32(hdr[len(hdr)-4:], uint32(len(payload)))
	putU32(hdr[:4], uint32(len(hdr)-4+len(payload)))
	return outFrame{hdr: hdr, payload: payload, release: release}
}

// replyFrame mirrors requestFrame for replies.
func replyFrame(rep *reply) (outFrame, error) {
	payload := rep.Data
	rep.Data = nil
	est := 48 + 4*len(rep.Sizes)
	for _, n := range rep.Names {
		est += 4 + len(n)
	}
	hdr := getBuf(est)[:0]
	hdr = append(hdr, 0, 0, 0, 0)
	hdr, err := appendReply(hdr, rep)
	if err != nil {
		putBuf(hdr)
		return outFrame{}, err
	}
	putU32(hdr[len(hdr)-4:], uint32(len(payload)))
	putU32(hdr[:4], uint32(len(hdr)-4+len(payload)))
	return outFrame{hdr: hdr, payload: payload, release: rep.release}, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
