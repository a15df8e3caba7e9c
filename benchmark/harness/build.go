package harness

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// BuildDir is where the harness keeps the binaries it builds and the
// inputs it generates, relative to the repository root.
const BuildDir = ".bench_build"

// FindRoot walks up from dir to the directory holding BENCHMARK.json.
func FindRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json at or above %s", dir)
		}
	}
}

// Bins are the shipped commands, built from source.
type Bins struct {
	Gridsat, Zchaff string
}

// Build compiles the four shipped commands (gridsat, zchaff, satgen,
// benchtab) from the checkout at root into BuildDir/bin. With a warm go
// build cache this is a staleness check and costs a fraction of a second.
func Build(root string) (Bins, error) {
	bin := filepath.Join(root, BuildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return Bins{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return Bins{}, fmt.Errorf("go build ./cmd/...: %w\n%s", err, out)
	}
	return Bins{Gridsat: filepath.Join(bin, "gridsat"), Zchaff: filepath.Join(bin, "zchaff")}, nil
}
