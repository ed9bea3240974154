// Package workload holds the paper's benchmark table (Figure 13a) and the
// nine four-thread workload mixes (Figure 13b).
package workload

import (
	"fmt"

	"vexsmt/internal/synth"
)

// PaperRow is one line of Figure 13(a): the paper-reported single-thread
// IPC with real memory (IPCr) and with perfect memory (IPCp). Our
// reproduction calibrates synthetic benchmarks against these values.
type PaperRow struct {
	Name        string
	Class       synth.ILPClass
	Description string
	IPCr        float64
	IPCp        float64
}

// PaperFigure13a returns the paper's benchmark table.
func PaperFigure13a() []PaperRow {
	return []PaperRow{
		{"mcf", synth.LowILP, "Minimum Cost Flow", 0.96, 1.34},
		{"bzip2", synth.LowILP, "Bzip2 Compression", 0.81, 0.83},
		{"blowfish", synth.LowILP, "Encryption", 1.11, 1.47},
		{"gsmencode", synth.LowILP, "GSM Encoder", 1.07, 1.07},
		{"g721encode", synth.MediumILP, "G721 Encoder", 1.75, 1.76},
		{"g721decode", synth.MediumILP, "G721 Decoder", 1.75, 1.76},
		{"cjpeg", synth.MediumILP, "Jpeg Encoder", 1.12, 1.66},
		{"djpeg", synth.MediumILP, "Jpeg Decoder", 1.76, 1.77},
		{"imgpipe", synth.HighILP, "Imaging pipeline", 3.81, 4.05},
		{"x264", synth.HighILP, "H.264 encoder", 3.89, 4.04},
		{"idct", synth.HighILP, "Inverse DCT", 4.79, 5.27},
		{"colorspace", synth.HighILP, "Colorspace Conversion", 5.47, 8.88},
	}
}

// Mix is one workload of Figure 13(b): four benchmarks named by their ILP
// combination.
type Mix struct {
	Label      string // e.g. "llhh"
	Benchmarks [4]string
}

// figure13b is the paper's nine workload mixes in presentation order,
// built once: plan resolution and cell canonicalization look mixes up on
// every request.
var figure13b = []Mix{
	{"llll", [4]string{"mcf", "bzip2", "blowfish", "gsmencode"}},
	{"lmmh", [4]string{"bzip2", "cjpeg", "djpeg", "imgpipe"}},
	{"mmmm", [4]string{"g721encode", "g721decode", "cjpeg", "djpeg"}},
	{"llmm", [4]string{"gsmencode", "blowfish", "g721encode", "djpeg"}},
	{"llmh", [4]string{"mcf", "blowfish", "cjpeg", "x264"}},
	{"llhh", [4]string{"mcf", "blowfish", "x264", "idct"}},
	{"lmhh", [4]string{"gsmencode", "g721encode", "imgpipe", "colorspace"}},
	{"mmhh", [4]string{"djpeg", "g721decode", "idct", "colorspace"}},
	{"hhhh", [4]string{"x264", "idct", "imgpipe", "colorspace"}},
}

// Figure13b returns a copy of the paper's nine workload mixes in
// presentation order.
func Figure13b() []Mix { return append([]Mix(nil), figure13b...) }

// MixByLabel returns the mix with the given label.
func MixByLabel(label string) (Mix, error) {
	for _, m := range figure13b {
		if m.Label == label {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q", label)
}

// Profiles resolves the mix's benchmark names to synthetic profiles.
func (m Mix) Profiles() ([]synth.Profile, error) {
	out := make([]synth.Profile, 0, len(m.Benchmarks))
	for _, name := range m.Benchmarks {
		p, ok := synth.ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload: mix %s references unknown benchmark %q", m.Label, name)
		}
		out = append(out, p)
	}
	return out, nil
}

// Validate checks that every mix's label matches its benchmarks' ILP
// classes and that all names resolve.
func Validate() error {
	for _, m := range figure13b {
		profs, err := m.Profiles()
		if err != nil {
			return err
		}
		counts := map[synth.ILPClass]int{}
		for _, p := range profs {
			counts[p.Class]++
		}
		want := map[synth.ILPClass]int{}
		for _, ch := range m.Label {
			want[synth.ILPClass(ch)]++
		}
		for class, n := range want {
			if counts[class] != n {
				return fmt.Errorf("workload: mix %s has %d %c-class benchmarks, label implies %d",
					m.Label, counts[class], class, n)
			}
		}
	}
	return nil
}
