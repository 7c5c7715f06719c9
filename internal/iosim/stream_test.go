package iosim

import (
	"bytes"
	"testing"
)

// FuzzStream holds the stream to ReadAt. Records of random lengths (1 to
// 256 bytes) are packed end to end on a random page size, and a random
// set of them is skipped. Every record taken — its header peeked first,
// as the scanners do — equals ReadAt's bytes for its range, and the file
// reads exactly the pages the taken records span, each once: from a
// parked head, one random read per run of consecutive pages and
// sequential reads for the rest of the run.
func FuzzStream(f *testing.F) {
	f.Add(uint8(15), []byte{3, 40, 5, 15, 0, 60, 200, 7}, []byte{0b00010110})
	f.Add(uint8(0), []byte{0, 0, 1, 255}, []byte{})
	f.Add(uint8(63), []byte{63, 63, 127, 0, 0, 0, 31}, []byte{0b01100001})
	f.Fuzz(func(t *testing.T, pageSel uint8, lens, skip []byte) {
		ps := int(pageSel)%64 + 1
		var data []byte
		for _, l := range lens {
			for range int(l) + 1 {
				data = append(data, byte(len(data)%251))
			}
		}
		file := func() *File {
			fl, err := NewDisk(WithPageSize(ps)).Create("f")
			if err != nil {
				t.Fatal(err)
			}
			w := fl.Writer()
			if _, err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			return fl
		}
		streamed, ref := file(), file()

		st := streamed.Stream()
		touched := map[int64]bool{}
		var off int64
		for i, l := range lens {
			n := int(l) + 1
			if i/8 < len(skip) && skip[i/8]&(1<<(i%8)) != 0 {
				off += int64(n)
				continue
			}
			want, err := ref.ReadAt(off, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			st.SkipTo(off)
			head, err := st.Peek(min(n, 6))
			if err != nil {
				t.Fatalf("record %d: peek: %v", i, err)
			}
			if !bytes.Equal(head, want[:len(head)]) {
				t.Fatalf("record %d: peeked %v, want %v", i, head, want[:len(head)])
			}
			got, err := st.Next(n)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d at %d: stream %v, ReadAt %v", i, off, got, want)
			}
			for p := off / int64(ps); p <= (off+int64(n)-1)/int64(ps); p++ {
				touched[p] = true
			}
			off += int64(n)
		}
		var wantReads Stats
		for p := range touched {
			if touched[p-1] {
				wantReads.SeqReads++
			} else {
				wantReads.RandReads++
			}
		}
		if got := streamed.Stats(); got.SeqReads != wantReads.SeqReads || got.RandReads != wantReads.RandReads {
			t.Fatalf("stream read %v, the taken records span %v", got, wantReads)
		}
	})
}
