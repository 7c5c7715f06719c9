// Package iosim is the fixture's stand-in for the simulated disk, whose
// files the resourceleak rows pair with Close.
package iosim

// File is a stub paged file.
type File struct{ pages [][]byte }

// Open returns an empty file. The resourceleak fixture policy pairs it
// with Close.
func Open() *File { return &File{} }

// OpenPair returns a file with a paired error, the (T, error) acquire
// shape whose failure path owes no Close.
func OpenPair() (*File, error) { return &File{}, nil }

// Close releases the file.
func (f *File) Close() error {
	f.pages = nil
	return nil
}

// ReadPage returns page i or nil.
func (f *File) ReadPage(i int) []byte {
	if i < 0 || i >= len(f.pages) {
		return nil
	}
	return f.pages[i]
}
