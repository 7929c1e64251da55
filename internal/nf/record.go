package nf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"gnf/internal/packet"
)

// Migration state travels as records. Every stateful NF writes its tables
// with a RecordWriter and reads them back with a RecordReader: untagged and
// positional (each kind documents its layout beside its ExportState), with
// fixed-width big-endian integers, uvarints for counts and counters, times
// as Unix nanoseconds and uvarint-length-prefixed bytes and strings. Tables
// are written sorted by key, so equal tables export equal bytes, and readers
// insist on that order, which also rules out a key appearing twice.

// ErrBadRecord reports a state blob that is truncated, malformed, or longer
// than the records it holds.
var ErrBadRecord = errors.New("nf: malformed state record")

var (
	errTruncated = fmt.Errorf("%w: truncated", ErrBadRecord)
	errTrailing  = fmt.Errorf("%w: bytes past the last record", ErrBadRecord)
)

// RecordWriter appends records to itself; the zero value is empty and
// ready to use, and the writer is the encoded blob.
type RecordWriter []byte

// Uint8 appends one byte.
func (w *RecordWriter) Uint8(v uint8) { *w = append(*w, v) }

// Bool appends 1 for true and 0 for false.
func (w *RecordWriter) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends v in two bytes.
func (w *RecordWriter) Uint16(v uint16) { *w = binary.BigEndian.AppendUint16(*w, v) }

// Uint32 appends v in four bytes.
func (w *RecordWriter) Uint32(v uint32) { *w = binary.BigEndian.AppendUint32(*w, v) }

// Uvarint appends v in one to ten bytes.
func (w *RecordWriter) Uvarint(v uint64) { *w = binary.AppendUvarint(*w, v) }

// IP appends the address's four bytes.
func (w *RecordWriter) IP(ip packet.IP) { *w = append(*w, ip[:]...) }

// MAC appends the address's six bytes.
func (w *RecordWriter) MAC(m packet.MAC) { *w = append(*w, m[:]...) }

// Time appends t as Unix nanoseconds in eight bytes; the zero Time is 0.
func (w *RecordWriter) Time(t time.Time) {
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	*w = binary.BigEndian.AppendUint64(*w, uint64(ns))
}

// Bytes appends b behind its length.
func (w *RecordWriter) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	*w = append(*w, b...)
}

// Text appends s behind its length.
func (w *RecordWriter) Text(s string) {
	w.Uvarint(uint64(len(s)))
	*w = append(*w, s...)
}

// RecordReader reads back what a RecordWriter wrote. Its error is sticky:
// once a read runs past the blob or meets a malformed value, every later
// read returns the zero value and Finish reports the first failure, so a
// decoder reads a whole record and checks once.
type RecordReader struct {
	buf []byte
	err error
}

// NewRecordReader reads blob, which it does not retain past the reads:
// Bytes and Text return copies.
func NewRecordReader(blob []byte) *RecordReader { return &RecordReader{buf: blob} }

// Finish returns the first error any read met, or one if bytes remain
// unread.
func (r *RecordReader) Finish() error {
	if r.err == nil && len(r.buf) > 0 {
		return errTrailing
	}
	return r.err
}

func (r *RecordReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// take consumes n bytes, or fails and returns nil.
func (r *RecordReader) take(n int) []byte {
	if n > len(r.buf) {
		r.fail(errTruncated)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Uint8 reads one byte.
func (r *RecordReader) Uint8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *RecordReader) Bool() bool {
	switch r.Uint8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(fmt.Errorf("%w: boolean neither 0 nor 1", ErrBadRecord))
	return false
}

// Uint16 reads two bytes.
func (r *RecordReader) Uint16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// Uint32 reads four bytes.
func (r *RecordReader) Uint32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// Uvarint reads a uvarint.
func (r *RecordReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(errTruncated) // n < 0: more than 64 bits, equally not a record
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Count reads a count of records or bytes to follow. Each of them takes at
// least a byte, so a count larger than what remains is refused before a
// caller sizes anything by it.
func (r *RecordReader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(errTruncated)
		return 0
	}
	return int(n)
}

// IP reads four bytes.
func (r *RecordReader) IP() (ip packet.IP) {
	copy(ip[:], r.take(len(ip)))
	return ip
}

// MAC reads six bytes.
func (r *RecordReader) MAC() (m packet.MAC) {
	copy(m[:], r.take(len(m)))
	return m
}

// Time reads eight bytes of Unix nanoseconds; 0 is the zero Time.
func (r *RecordReader) Time() time.Time {
	b := r.take(8)
	if b == nil {
		return time.Time{}
	}
	ns := int64(binary.BigEndian.Uint64(b))
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Bytes reads a length and that many bytes, copied.
func (r *RecordReader) Bytes() []byte {
	return append([]byte(nil), r.take(r.Count())...)
}

// Text reads a length and that many bytes as a string.
func (r *RecordReader) Text() string {
	return string(r.take(r.Count()))
}
