// Command release breaks the release rule of cmd/ in each way
// TestCmdReleasesFilesAndListeners knows, next to the forms it accepts.
package main

import (
	"net"
	"net/http"
	"os"
)

func leaked(path string) (string, error) {
	f, err := os.Open(path) // want release "neither closed by a defer"
	if err != nil {
		return "", err
	}
	return f.Name(), nil
}

func unchecked(path string) error {
	f, err := os.Create(path) // want release "no explicit Close has its error checked"
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString("rows")
	return err
}

func discarded(path string) {
	os.OpenFile(path, os.O_RDONLY, 0) // want release "not kept in a variable"
}

func accepted(path string) (*os.File, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, nil)
	w, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if _, err := w.WriteString("rows"); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return os.Open(path)
}

func main() {}
