// Package layered is the fixture's facade: free to import any module
// package.
package layered

import (
	_ "layered/internal/a"
	_ "layered/internal/b"
)
