package iosim

import "slices"

// Stream reads a file's bytes in order, one packed record at a time: the
// sequential access every scan makes. A record inside one page is
// returned as a slice of the page image, which must not be modified; one
// that crosses pages is stitched into one scratch buffer the stream
// reuses, so a steady-state scan allocates nothing. A page is read when
// the first byte wanted from it is, and never twice in a row: a stream
// that takes every record reads each page of the file once, in order
// (the paper's D sequential reads), and a SkipTo past the bytes already
// read sends the next read to the target's page, leaving the pages in
// between unread: the head position prices that read as random unless
// the target page is the next one.
type Stream struct {
	f *File
	// pos is the file offset of buf[0]; end is the offset of the first
	// byte not yet read: pos + len(buf) + len(tail) == end.
	pos, end int64
	// buf holds the unconsumed bytes from pos: a slice of the last page
	// read, or of scratch after a stitch, when tail is what is left of
	// the last page. tail is empty whenever buf is.
	buf, tail, scratch []byte
}

// Stream starts a sequential read at the file's first byte.
func (f *File) Stream() *Stream { return &Stream{f: f} }

// Reset restarts s at f's first byte, as f.Stream would, keeping its
// scratch grown to window bytes: a scan whose records are at most window
// bytes long then never grows it. A nil f detaches s from its file.
func (s *Stream) Reset(f *File, window int) {
	*s = Stream{f: f, scratch: slices.Grow(s.scratch[:0], window)}
}

// Peek returns the next n bytes without consuming them, reading the
// pages they reach into. The slice is valid until the next call.
func (s *Stream) Peek(n int) ([]byte, error) {
	if len(s.buf) < n {
		if err := s.fill(n); err != nil {
			return nil, err
		}
	}
	return s.buf[:n:n], nil
}

// Next returns the next n bytes and consumes them; the slice is valid
// until the next call.
func (s *Stream) Next(n int) ([]byte, error) {
	b, err := s.Peek(n)
	if err != nil {
		return nil, err
	}
	s.consume(int64(n))
	return b, nil
}

// SkipTo moves the stream forward to file offset off, which must not lie
// behind the bytes consumed. Skipped bytes on pages already read cost
// nothing; a target past them leaves every page in between unread.
func (s *Stream) SkipTo(off int64) {
	if off <= s.end {
		s.consume(off - s.pos)
		return
	}
	s.pos, s.end = off, off
	s.buf, s.tail = nil, nil
}

func (s *Stream) consume(n int64) {
	s.pos += n
	if n < int64(len(s.buf)) {
		s.buf = s.buf[n:]
		return
	}
	s.buf, s.tail = s.tail[n-int64(len(s.buf)):], nil
}

// fill makes buf hold at least n bytes: the next page's image when buf is
// empty and the page holds them, else a stitch into scratch of buf and
// exactly the bytes still missing.
func (s *Stream) fill(n int) error {
	if len(s.buf) == 0 {
		page, err := s.readPage()
		if err != nil {
			return err
		}
		if s.buf = page; len(page) >= n {
			return nil
		}
	}
	// buf may alias scratch; append copies with memmove, so the overlap
	// is safe. A failed read leaves what was stitched in buf.
	s.scratch = append(s.scratch[:0], s.buf...)
	var err error
	for len(s.scratch) < n && err == nil {
		if len(s.tail) == 0 {
			s.tail, err = s.readPage()
		}
		take := min(n-len(s.scratch), len(s.tail))
		s.scratch = append(s.scratch, s.tail[:take]...)
		s.tail = s.tail[take:]
	}
	s.buf = s.scratch
	return err
}

// readPage reads the page holding offset end and returns its bytes from
// there on.
func (s *Stream) readPage() ([]byte, error) {
	ps := int64(s.f.disk.pageSize)
	page, err := s.f.ReadPage(s.end / ps)
	if err != nil {
		return nil, err
	}
	lo := s.end % ps
	s.end += ps - lo
	return page[lo:], nil
}
