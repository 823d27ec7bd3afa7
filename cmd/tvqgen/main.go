// Command tvqgen generates synthetic object-stream traces with the
// statistical shape of the paper's evaluation datasets and writes them as
// CSV or JSON Lines.
//
// Usage:
//
//	tvqgen -dataset D2 -seed 7 -o d2.csv
//	tvqgen -dataset M1 -po 2 -miss 0.05 -format jsonl -o m1.jsonl
//	tvqgen -dataset M1 -format binary -o m1.tvqf   # binary wire format
//	tvqgen -frames 2000 -objects 150 -fpo 60 -opo 4 -o custom.csv
//	tvqgen -dataset V1 -stats            # print Table 6 statistics only
//	tvqgen -dataset V1 -disorder 4 -format jsonl -o v1-shuffled.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tvq"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on the arguments args, writing the trace (or the
// statistics) to stdout unless -o names a file, and diagnostics to
// stderr; it returns the exit status: 2 for a flag error, 1 for a
// failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tvqgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset  = fs.String("dataset", "", "standard dataset profile (V1, V2, D1, D2, M1, M2); empty = custom profile from -frames/-objects/-fpo/-opo")
		frames   = fs.Int("frames", 1000, "custom profile: total frames")
		objects  = fs.Int("objects", 100, "custom profile: unique objects")
		fpo      = fs.Float64("fpo", 50, "custom profile: mean frames per object")
		opo      = fs.Float64("opo", 3, "custom profile: mean occlusions per object")
		moving   = fs.Bool("moving", false, "custom profile: moving-camera arrival bursts")
		seed     = fs.Int64("seed", 1, "generation seed")
		po       = fs.Int("po", 0, "occlusion parameter: reuse each object id up to po times")
		miss     = fs.Float64("miss", 0, "tracker noise: per-object-frame detection miss probability")
		swtch    = fs.Float64("switch", 0, "tracker noise: per-object-frame identity switch probability")
		fp       = fs.Float64("fp", 0, "tracker noise: expected false positives per frame")
		format   = fs.String("format", "csv", "output format: csv, jsonl or binary")
		out      = fs.String("o", "-", "output path; - for stdout")
		stats    = fs.Bool("stats", false, "print dataset statistics instead of the trace")
		disorder = fs.Int("disorder", 0, "emit frames in a bounded-shuffle order: no frame displaced more than this many positions (jsonl/binary only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if err := generate(stdout, *dataset, *frames, *objects, *fpo, *opo, *moving, *seed, *po,
		*miss, *swtch, *fp, *format, *out, *stats, *disorder); err != nil {
		fmt.Fprintln(stderr, "tvqgen:", err)
		return 1
	}
	return 0
}

// generate writes the trace the flags describe to out, or to stdout
// when out is "-".
func generate(stdout io.Writer, dataset string, frames, objects int, fpo, opo float64, moving bool,
	seed int64, po int, miss, swtch, fp float64, format, out string, stats bool, disorder int) error {

	if disorder < 0 {
		return fmt.Errorf("-disorder %d: bound must be non-negative", disorder)
	}
	if disorder > 0 && format == "csv" {
		return fmt.Errorf("-disorder needs a frame-stream format (jsonl or binary); csv is row-per-tuple and has no frame order to shuffle")
	}

	var profile tvq.Profile
	if dataset != "" {
		p, ok := tvq.DatasetByName(dataset)
		if !ok {
			return fmt.Errorf("unknown dataset %q (want V1, V2, D1, D2, M1 or M2)", dataset)
		}
		profile = p
	} else {
		profile = tvq.Profile{
			Name: "custom", Frames: frames, Objects: objects,
			FramesPerObj: fpo, OccPerObj: opo, MovingCamera: moving,
			ClassMix: map[string]float64{"car": 0.5, "person": 0.3, "truck": 0.12, "bus": 0.08},
		}
	}

	reg := tvq.StandardRegistry()
	trace, err := tvq.GenerateDataset(profile, seed, tvq.Noise{
		MissProb:          miss,
		SwitchProb:        swtch,
		FalsePositiveRate: fp,
		Seed:              seed,
	}, reg)
	if err != nil {
		return err
	}
	if po > 0 {
		trace = tvq.InjectOcclusions(trace, po, seed)
	}

	if stats {
		st := tvq.ComputeStats(trace)
		fmt.Fprintf(stdout, "dataset=%s frames=%d objects=%d obj/frame=%.2f occ/obj=%.2f frames/obj=%.2f\n",
			profile.Name, st.Frames, st.Objects, st.ObjPerFrame, st.OccPerObj, st.FramesPerObj)
		return nil
	}

	w := stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if format == "csv" {
		return tvq.WriteTraceCSV(w, trace, reg)
	}
	codec, ok := tvq.CodecByName(format)
	if !ok {
		return fmt.Errorf("unknown format %q (want csv, jsonl or binary)", format)
	}
	if disorder == 0 {
		return codec.WriteTrace(w, trace, reg)
	}
	// Bounded-shuffle emission: the frame stream arrives displaced by at
	// most -disorder positions — the arrival pattern a session opened
	// with WithDisorderBound(disorder) reassembles exactly. The shuffle
	// reuses the generation seed, so a trace and its disordered emission
	// are reproducible together. Disordered streams are for the
	// streaming consumers (ingest, cmd/tvq -stream); the whole-trace
	// readers reject them by design.
	fw := codec.NewFrameWriter(w, reg)
	for _, f := range tvq.BoundedShuffle(trace.Frames(), disorder, seed) {
		if err := fw.WriteFrame(f); err != nil {
			return err
		}
	}
	return fw.Flush()
}
