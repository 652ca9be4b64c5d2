package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Writer appends events to a JSONL journal: one compact JSON object per
// line, sequence numbers assigned monotonically under the writer's lock so
// concurrent pool workers serialize deterministically (each event's seq
// matches its position in the file).
//
// Writes are buffered per event — the marshal and the trailing newline land
// in one flush — and flushed to the underlying writer before Append
// returns, so a crash loses at most the event being written; the reader
// side (ReadAll) treats a truncated final line as a clean end of stream.
type Writer struct {
	mu   sync.Mutex
	bw   *bufio.Writer
	file *os.File // non-nil only for Create-owned files; closed by Close
	seq  uint64
	err  error
	tap  func(Event)
}

// NewWriter returns a journal writer over w. The caller owns w; Close
// flushes but does not close it.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Create creates (truncating) the journal file at path and returns a writer
// that owns it.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := NewWriter(f)
	w.file = f
	return w, nil
}

// Tap registers fn to observe every appended event, called synchronously
// under the writer's lock after the event is written — the hook the web
// site's SSE broker fans live events out from. Must be set before the
// first Append.
func (w *Writer) Tap(fn func(Event)) { w.tap = fn }

// Append assigns the next sequence number to the event, writes it as one
// JSONL line, and flushes. The first write error sticks: every later
// Append returns it without writing.
func (w *Writer) Append(e Event) (Event, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return Event{}, w.err
	}
	e.Seq = w.seq + 1
	data, err := json.Marshal(e)
	if err != nil {
		// Marshal errors don't latch: the writer itself is still healthy
		// and the event was never written, so its seq is not consumed.
		return Event{}, fmt.Errorf("journal: marshal %s event: %w", e.Type, err)
	}
	w.seq = e.Seq
	if _, err = w.bw.Write(data); err == nil {
		if err = w.bw.WriteByte('\n'); err == nil {
			err = w.bw.Flush()
		}
	}
	if err != nil {
		w.err = err
		return Event{}, fmt.Errorf("journal: append: %w", err)
	}
	if w.tap != nil {
		w.tap(e)
	}
	return e, nil
}

// Close flushes the buffer and, for Create-owned files, syncs and closes
// the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.bw.Flush()
	if w.err == nil {
		w.err = err
	}
	if w.file != nil {
		if serr := w.file.Sync(); err == nil {
			err = serr
		}
		if cerr := w.file.Close(); err == nil {
			err = cerr
		}
		w.file = nil
	}
	return err
}
