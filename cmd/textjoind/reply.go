package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"

	"textjoin"
)

// The /join success reply is one compact JSON document, newline-terminated:
// the joinResponse header fields as encoding/json writes them, then — when
// at least one row is shown — a "results" array of
//
//	{"outer":<n>,"matches":[{"doc":<n>,"sim":<x>},…]}
//
// rows, "matches" being [] (never null) for a row without matches. It is
// byte for byte what json.Marshal makes of the header with the rows as
// struct fields, but the rows are appended straight from the join's
// []textjoin.Result into one buffer that is handed to the connection
// whenever it fills: no copy of the rows, and no whole-reply buffer. The
// buffer is the caller's, kept from request to request (replySet).

const (
	// replyBufBytes is the size of the one buffer a reply is encoded in.
	replyBufBytes = 32 << 10
	// replyItemBytes bounds what one step of the encoder appends between
	// two room checks: a row opening, or one match and its row's closing.
	replyItemBytes = 64
)

// writeJoinReply answers a /join with status 200, the header fields of
// resp and the first show rows of results, encoded in buf: its capacity,
// at least replyBufBytes (a smaller buf is replaced by a new one), is
// what each write hands the connection. It stops at the first failed
// write and returns that error, so a client that hung up costs no further
// encoding. A header encoding/json rejects is returned before anything is
// written.
func writeJoinReply(w http.ResponseWriter, resp *joinResponse, results []textjoin.Result, show int, buf []byte) error {
	head, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	if show < len(results) {
		results = results[:max(show, 0)]
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)

	if cap(buf) < replyBufBytes {
		buf = make([]byte, 0, replyBufBytes)
	}
	e := replyEncoder{w: w, buf: buf[:0]}
	// The header document without its closing brace; the rows and the
	// brace follow.
	e.buf = append(e.buf, head[:len(head)-1]...)
	if len(results) > 0 {
		e.buf = append(e.buf, `,"results":[`...)
	}
	for i, r := range results {
		if err := e.room(); err != nil {
			return err
		}
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"outer":`...)
		e.buf = strconv.AppendUint(e.buf, uint64(r.Outer), 10)
		e.buf = append(e.buf, `,"matches":[`...)
		for j, m := range r.Matches {
			if err := e.room(); err != nil {
				return err
			}
			if j > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `{"doc":`...)
			e.buf = strconv.AppendUint(e.buf, uint64(m.Doc), 10)
			e.buf = append(e.buf, `,"sim":`...)
			e.buf = appendJSONFloat(e.buf, m.Sim)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, "]}"...)
	}
	if len(results) > 0 {
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, "}\n"...)
	_, err = e.w.Write(e.buf)
	return err
}

// replyEncoder is the one buffer of a streamed reply and the writer it
// drains into.
type replyEncoder struct {
	w   io.Writer
	buf []byte
}

// room writes the buffer out once less than one step's worth of it is
// left free.
func (e *replyEncoder) room() error {
	if len(e.buf) <= cap(e.buf)-replyItemBytes {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in %f form unless |f| < 1e-6 or
// |f| ≥ 1e21, which take %e form with a one-digit negative exponent
// written without its leading zero (1e-7, not 1e-07). f must be finite.
// An integral f below 2⁵³ in magnitude, every raw-tf similarity, is its
// integer's digits, appended without the shortest-decimal search; zero
// takes the float path, which keeps −0's sign.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs != 0 && abs < 1<<53 && f == math.Trunc(f) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
