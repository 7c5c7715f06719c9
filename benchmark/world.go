package main

import (
	"time"

	"textjoin"
	"textjoin/internal/corpus"
)

// Every workload uses the library's defaults for page size (4096) and
// α (5), and λ = 20.
const (
	pageSize = 4096
	alpha    = 5
	lambda   = 20
)

// world is one workspace built from a seed: two WSJ-profile collections
// and whichever derived structures a workload's set-up asks for.
type world struct {
	ws         *textjoin.Workspace
	c1, c2     *textjoin.Collection
	inv1, inv2 *textjoin.InvertedFile
	sig1, sig2 *textjoin.SignatureSidecar
	lsh1       *textjoin.LSHSidecar
	// phaseMs is how long each part of the set-up took; parts built
	// later by complete, for the layer drives, are not set-up and are
	// not in it.
	phaseMs map[string]float64
}

// structures names the derived structures a set-up builds.
type structures struct{ inv1, inv2, sidecars bool }

func (w *world) timed(phase string, f func() error) error {
	t0 := time.Now()
	err := f()
	if w.phaseMs != nil {
		w.phaseMs[phase] += time.Since(t0).Seconds() * 1e3
	}
	return err
}

// buildWorld generates C1 from seed and C2 from seed+1 at WSJ/scale, in
// the order textjoind builds its workspace, then the structures asked
// for.
func buildWorld(scale, seed int64, s structures) (*world, error) {
	w := &world{
		ws:      textjoin.NewWorkspace(textjoin.WithPageSize(pageSize), textjoin.WithAlpha(alpha)),
		phaseMs: map[string]float64{},
	}
	err := w.timed("generate", func() error {
		p, err := corpus.ProfileByName("wsj")
		if err != nil {
			return err
		}
		p = p.Scaled(scale)
		p.Name = "c1"
		if w.c1, err = w.ws.GenerateCorpus(p, seed); err != nil {
			return err
		}
		p.Name = "c2"
		w.c2, err = w.ws.GenerateCorpus(p, seed+1)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := w.build(s); err != nil {
		return nil, err
	}
	return w, nil
}

// build adds the structures in s that the world does not have yet.
func (w *world) build(s structures) error {
	inv := func(c *textjoin.Collection, dst **textjoin.InvertedFile) error {
		if *dst != nil {
			return nil
		}
		err := w.timed("invfile_build", func() (err error) {
			*dst, err = w.ws.BuildInvertedFile(c)
			return err
		})
		if err != nil {
			return err
		}
		return w.timed("load_index", func() error {
			_, err := (*dst).LoadIndex()
			return err
		})
	}
	if s.inv1 {
		if err := inv(w.c1, &w.inv1); err != nil {
			return err
		}
	}
	if s.inv2 {
		if err := inv(w.c2, &w.inv2); err != nil {
			return err
		}
	}
	if !s.sidecars || w.lsh1 != nil {
		return nil
	}
	err := w.timed("signature_build", func() (err error) {
		if w.sig1, err = w.ws.BuildSignatures(w.c1, textjoin.SignatureConfig{}); err != nil {
			return err
		}
		w.sig2, err = w.ws.BuildSignatures(w.c2, textjoin.SignatureConfig{})
		return err
	})
	if err != nil {
		return err
	}
	return w.timed("lsh_build", func() (err error) {
		w.lsh1, err = w.ws.BuildLSH(w.c1, textjoin.LSHConfig{})
		return err
	})
}

// complete builds everything the layer drives need. It runs after the
// measured rounds and its time is not reported as set-up.
func (w *world) complete() error {
	w.phaseMs = nil
	return w.build(structures{inv1: true, inv2: true, sidecars: true})
}

func (w *world) inputs() textjoin.Inputs {
	return textjoin.Inputs{Outer: w.c2, Inner: w.c1, InnerInv: w.inv1, OuterInv: w.inv2}
}
