package invfile

import (
	"fmt"

	"textjoin/internal/iosim"
)

// WithView returns a copy of the handle whose entry-file access runs
// through the given read-only I/O view: merge scans and random entry
// fetches move the view's private head positions and count into the
// view's Stats. The term index is loaded eagerly (idempotent, charged
// to the shared base file once) so no per-session I/O ever hits the
// shared B+tree file mid-join — every session then performs exactly
// the same I/O as a serial run, which is what keeps concurrent
// per-request Stats byte-identical. A nil view returns the handle
// unchanged.
func (f *InvertedFile) WithView(v *iosim.View) (*InvertedFile, error) {
	if f == nil || v == nil {
		return f, nil
	}
	if _, err := f.LoadIndex(); err != nil {
		return nil, fmt.Errorf("invfile: loading index for view: %w", err)
	}
	return &InvertedFile{
		entries: v.File(f.entries),
		tree:    f.tree,
		stats:   f.stats,
		idx:     f.idx,
		largest: f.largest,
	}, nil
}
