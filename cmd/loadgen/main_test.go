package main

import (
	"errors"
	"net/http"
	"testing"
)

// TestClassify pins the outcome buckets: 503 is load shedding, 422 is a
// join the workspace cannot run — the two must never be conflated with
// each other or with genuine errors.
func TestClassify(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		want   outcome
	}{
		{"ok", nil, http.StatusOK, outcomeOK},
		{"rejected", nil, http.StatusServiceUnavailable, outcomeRejected},
		{"unprocessable", nil, http.StatusUnprocessableEntity, outcomeUnprocessable},
		{"bad request", nil, http.StatusBadRequest, outcomeError},
		{"server error", nil, http.StatusInternalServerError, outcomeError},
		{"not found", nil, http.StatusNotFound, outcomeError},
		{"transport error", errors.New("connection refused"), 0, outcomeError},
		// A transport error wins even when a status leaked through.
		{"error with status", errors.New("timeout"), http.StatusOK, outcomeError},
	}
	for _, c := range cases {
		if got := classify(c.err, c.status); got != c.want {
			t.Errorf("%s: classify(%v, %d) = %v, want %v", c.name, c.err, c.status, got, c.want)
		}
	}
}
