package sax

import (
	"bufio"
	"io"
	"strings"
)

// Writer serializes SAX events back into XML text. It implements Handler,
// so a Scanner piped into a Writer round-trips a document (modulo skipped
// constructs such as comments). It also counts bytes written, which the
// benchmark harness uses to size query outputs.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// BytesWritten reports the number of bytes emitted so far (pre-flush
// buffering included).
func (w *Writer) BytesWritten() int64 { return w.n }

// Reset discards any unflushed output and error state and redirects the
// Writer to out, allowing a long-lived server to reuse Writers instead of
// allocating one per query execution.
func (w *Writer) Reset(out io.Writer) {
	w.w.Reset(out)
	w.n = 0
	w.err = nil
}

// Flush flushes the underlying buffered writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) writeString(s string) error {
	if w.err != nil {
		return w.err
	}
	n, err := w.w.WriteString(s)
	w.n += int64(n)
	w.err = err
	return err
}

// StartElement implements Handler.
func (w *Writer) StartElement(name string) error { return w.tag("<", name) }

// EndElement implements Handler.
func (w *Writer) EndElement(name string) error { return w.tag("</", name) }

// tag writes open, name and '>' with one append into the buffer's free
// space. A tag longer than that space grows a copy, which Write splits
// across the flush; the bytes are those of three separate writes.
func (w *Writer) tag(open, name string) error {
	if w.err != nil {
		return w.err
	}
	b := append(w.w.AvailableBuffer(), open...)
	b = append(b, name...)
	return w.write(append(b, '>'))
}

// escaped marks the bytes that must not appear literally in character
// data.
var escaped = [256]bool{'<': true, '>': true, '&': true}

// clean returns the length of the prefix of data that needs no escaping.
func clean[T string | []byte](data T) int {
	for i := 0; i < len(data); i++ {
		if escaped[data[i]] {
			return i
		}
	}
	return len(data)
}

// Text implements Handler. Character data is escaped.
func (w *Writer) Text(data string) error {
	return w.writeString(EscapeText(data))
}

// TextBytes is Text for byte-slice payloads — the batched scan path's
// arena-backed tokens are escaped and written without being converted to
// a string first.
func (w *Writer) TextBytes(data []byte) error {
	if w.err != nil {
		return w.err
	}
	i := clean(data)
	if i == len(data) {
		return w.write(data)
	}
	start := 0
	for ; i < len(data); i++ {
		var esc string
		switch data[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		default:
			continue
		}
		if err := w.write(data[start:i]); err != nil {
			return err
		}
		if err := w.writeString(esc); err != nil {
			return err
		}
		start = i + 1
	}
	return w.write(data[start:])
}

func (w *Writer) write(b []byte) error {
	if w.err != nil {
		return w.err
	}
	n, err := w.w.Write(b)
	w.n += int64(n)
	w.err = err
	return err
}

// Raw writes a pre-formed string (e.g. a fixed output string from a query)
// without escaping.
func (w *Writer) Raw(s string) error { return w.writeString(s) }

// EscapeText escapes the characters that must not appear literally in XML
// character data.
func EscapeText(s string) string {
	i := clean(s)
	if i == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	b.WriteString(s[:i])
	for ; i < len(s); i++ {
		switch s[i] {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
