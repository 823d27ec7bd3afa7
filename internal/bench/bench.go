// Package bench holds the inputs of the paper's evaluation (§6): the
// Table 6 datasets rendered from package video's synthetic profiles, the
// query workloads of Figures 8–10 and of the query-scaling sweep, and the
// multi-feed stream of the pool scaling experiment. The Go benchmarks in
// the repository root and this package's op-count shape tests drive
// them; the end-to-end workloads live in benchmark/.
package bench

import (
	"fmt"

	"tvq/internal/track"
	"tvq/internal/video"
	"tvq/internal/vr"
)

// Config scales the datasets. The paper's parameters are the defaults;
// Scale divides frame counts for quick runs (benchmarks use Scale > 1 to
// keep -bench wall time reasonable).
type Config struct {
	// Seed drives scene generation; datasets are deterministic in it.
	Seed int64
	// Scale divides every dataset's frame count, window and duration
	// (minimum 1). Scale 1 reproduces the paper's parameters exactly.
	Scale int
}

func (c Config) scale(v int) int {
	if c.Scale <= 1 {
		return v
	}
	s := v / c.Scale
	if s < 1 {
		s = 1
	}
	return s
}

// DefaultWindow and DefaultDuration are the paper's defaults (§6.2): with
// 30 fps footage, objects appearing at least 8 of the last 10 seconds.
const (
	DefaultWindow   = 300
	DefaultDuration = 240
)

// Dataset materializes one profile through the (simulated) detection and
// tracking layer.
type Dataset struct {
	Profile video.Profile
	Trace   *vr.Trace
	Reg     *vr.Registry
}

// LoadDataset generates the named Table 6 dataset at the configured
// scale. Tracking is perfect (zero noise), so that dataset statistics
// stay at their Table 6 values.
func (c Config) LoadDataset(name string) (*Dataset, error) {
	p, ok := video.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
	p.Frames = c.scale(p.Frames)
	if c.Scale > 1 {
		// Preserve density: scale object population with frame count.
		p.Objects = max(2, p.Objects/c.Scale)
	}
	sc, err := video.Generate(p, c.Seed)
	if err != nil {
		return nil, err
	}
	reg := vr.StandardRegistry()
	tr, err := track.Detect(sc, reg, track.Noise{})
	if err != nil {
		return nil, err
	}
	return &Dataset{Profile: p, Trace: tr, Reg: reg}, nil
}

// DatasetNames lists the Table 6 datasets in the paper's order.
func DatasetNames() []string { return []string{"V1", "V2", "D1", "D2", "M1", "M2"} }

// MCOSMethods are the §6.2 subjects.
var MCOSMethods = []string{"NAIVE", "MFS", "SSG"}
