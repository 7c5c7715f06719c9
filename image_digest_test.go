package textjoin

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"textjoin/internal/corpus"
)

// imageShapes are the workspaces whose saved images TestWorkspaceImageDigests
// pins: five paper-profile collections with their inverted files, then one
// scattered planted-topic corpus rebuilt through the clustered layout (the
// remapped inverted file) and one contiguous corpus whose terms mix the
// topic range with global Zipf draws.
var imageShapes = []struct {
	name  string
	build func(ws *Workspace) error
	want  string
}{
	{"wsj/16 s1", profileImage("wsj", 16, 1), "9f941e1fdf15b3feb5ef5e60b46647c54737b25a7444ddf5f45006155e6d0364"},
	{"wsj/64 s7", profileImage("wsj", 64, 7), "e5811c1171c080333c2855cd893cabc23fa5adeb708d7de8d2260dc7b06860fc"},
	{"fr/64 s3", profileImage("fr", 64, 3), "a2e79b121caa0781444a0a49391c5672a17e8b9a5283a8854a9be86a5ed86efc"},
	{"doe/256 s5", profileImage("doe", 256, 5), "63c08f586d08aa3a993755ca2459816b18443412ac0d620b15f121c636eceada"},
	{"wsj/96 s11", profileImage("wsj", 96, 11), "f7475d5546c1edd00954b32e3b2f31411f844967e093ce2f2f0c4ec4766ce23b"},
	{"clustered scattered s1", clusteredImage(true, 1), "e162d43d6e3c11f2095fd7d06567af721a0370c467436071393bf88309f3bbcd"},
	{"clustered contiguous s2", clusteredImage(false, 2), "cac37395aa8139f42f0ac0e886b24168f5178a9ffaab1eefcfcd07a998fd6e2f"},
}

// profileImage generates one scaled paper profile and builds its inverted
// file.
func profileImage(profile string, scale, seed int64) func(*Workspace) error {
	return func(ws *Workspace) error {
		c, err := ws.GenerateProfile("c1", profile, scale, seed)
		if err != nil {
			return err
		}
		_, err = ws.BuildInvertedFile(c)
		return err
	}
}

// clusteredImage generates a planted-topic corpus and builds its inverted
// file. The scattered corpus draws every term from its topic and goes on
// through BuildClusteredLayout; the contiguous one keeps the default
// topic fraction, so a fifth of its terms are Zipf draws.
func clusteredImage(scatter bool, seed int64) func(*Workspace) error {
	return func(ws *Workspace) error {
		f, err := ws.Disk().Create("src")
		if err != nil {
			return err
		}
		p := corpus.ClusteredProfile{
			Profile: corpus.Profile{Name: "src", NumDocs: 512, TermsPerDoc: 64, DistinctTerms: 16384},
			Topics:  16,
			Scatter: scatter,
		}
		if scatter {
			p.TopicFraction = 1
		}
		src, err := corpus.GenerateClustered(p, seed, f)
		if err != nil {
			return err
		}
		inv, err := ws.BuildInvertedFile(src)
		if err != nil || !scatter {
			return err
		}
		_, err = ws.BuildClusteredLayout("c1", src, inv, SignatureConfig{Bits: 2048, Hashes: 1, Granularity: 512, ClusterDocs: 16})
		return err
	}
}

// TestWorkspaceImageDigests pins every byte that corpus generation and the
// inverted-file builds write: the SHA-256 of each shape's saved workspace
// image. A faster generator or builder must leave these unchanged; a
// changed digest means a changed collection, inverted file or B+tree.
func TestWorkspaceImageDigests(t *testing.T) {
	for _, sh := range imageShapes {
		ws := NewWorkspace()
		if err := sh.build(ws); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		h := sha256.New()
		if _, err := ws.Save(h); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != sh.want {
			t.Errorf("%s: image digest %s, want %s", sh.name, got, sh.want)
		}
	}
}
