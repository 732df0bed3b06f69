package main

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/sim"
)

// Workload sizes. Each workload's timed work is proportional to
// --seconds: marketplace runs for --seconds, ingest runs one probe and
// one write round per second, and read-window's 108 rounds each carry
// reads and submits in proportion. On a 2-vCPU x86-64 virtual machine
// a run at --seconds 30 takes about 40 to 50 seconds.
const (
	// ingest: long-history objects with arrival times scrambled over
	// one year, values on 10 levels.
	ingestObjects     = 64
	ingestRaters      = 50000
	ingestBasePerObj  = 1000 // preloaded history per object
	ingestUnaryChunk  = 64   // ratings per unary POST /v1/ratings
	ingestStreamLines = 128  // ratings per NDJSON stream body
	// ingest runs two sets of rounds, one per second of --seconds each.
	// A probe round posts windows on the base history, each followed by
	// aggregate reads; a write round sends unary chunks on one
	// connection while the other sends stream bodies. The fixed amounts
	// keep the recovered state the same size on every run, so
	// recovery_s does not follow throughput noise.
	ingestWindowsPerRound = 10
	ingestReadsPerWindow  = 5
	ingestUnaryPerRound   = 60
	ingestStreamsPerRound = 30

	// read-window: the §IV marketplace scaled up, preloaded whole.
	readScale      = 10 // rater populations × the paper's 400/200/200
	readMonths     = 36
	readWindowDays = 10
	// Per second of --seconds, the unary submits (a probe of the submit
	// path) and the aggregate reads each read-window round carries.
	readSubmitsPerRoundSec = 0.5
	readsPerRoundSec       = 0.5
	readZipfS              = 1.1

	// marketplace: the paper-scale marketplace fed in rating-time
	// order at a fixed offered rate.
	marketScale       = 1
	marketPreloadDays = 60
	// The paper-scale marketplace yields about 21 ratings a day; the
	// trace spans enough months for the whole offered schedule.
	marketRatingsPerDay = 20
	marketChunk         = 16  // ratings per unary submit
	marketRate          = 150 // offered submits per second
	marketWindowDays    = 10

	// ratings per probe submit on read-window, whose timed phase
	// otherwise sends none
	probeSubmitSize = 64
)

// window is one maintenance window [Start, End) in rating days.
type window struct{ Start, End float64 }

// appendRating renders one rating as its JSON object. Floats use the
// shortest form that parses back to the same float64, so the daemon
// and the in-process oracle see identical values.
func appendRating(b []byte, r rating.Rating) []byte {
	b = append(b, `{"rater":`...)
	b = strconv.AppendInt(b, int64(r.Rater), 10)
	b = append(b, `,"object":`...)
	b = strconv.AppendInt(b, int64(r.Object), 10)
	b = append(b, `,"value":`...)
	b = strconv.AppendFloat(b, r.Value, 'g', -1, 64)
	b = append(b, `,"time":`...)
	b = strconv.AppendFloat(b, r.Time, 'g', -1, 64)
	return append(b, '}')
}

// renderArray renders a unary submit body (a JSON array).
func renderArray(rs []rating.Rating) []byte {
	b := make([]byte, 0, len(rs)*72+2)
	b = append(b, '[')
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRating(b, r)
	}
	return append(b, ']')
}

// renderNDJSON renders a streaming ingest body, one rating per line.
func renderNDJSON(rs []rating.Rating) []byte {
	b := make([]byte, 0, len(rs)*72)
	for _, r := range rs {
		b = appendRating(b, r)
		b = append(b, '\n')
	}
	return b
}

// body is one pre-rendered request with the ratings it carries.
type body struct {
	data    []byte
	ratings []rating.Rating
}

func arrayBodies(rs []rating.Rating, size int) []body {
	var out []body
	for i := 0; i < len(rs); i += size {
		j := min(i+size, len(rs))
		out = append(out, body{data: renderArray(rs[i:j]), ratings: rs[i:j]})
	}
	return out
}

func streamBodies(rs []rating.Rating, size int) []body {
	var out []body
	for i := 0; i < len(rs); i += size {
		j := min(i+size, len(rs))
		out = append(out, body{data: renderNDJSON(rs[i:j]), ratings: rs[i:j]})
	}
	return out
}

// scrambled draws n ratings over the ingest objects with times uniform
// over one year and values on 10 levels.
func scrambled(rng *randx.Rand, n int) []rating.Rating {
	rs := make([]rating.Rating, n)
	for i := range rs {
		rs[i] = rating.Rating{
			Rater:  rating.RaterID(rng.Intn(ingestRaters)),
			Object: rating.ObjectID(1 + rng.Intn(ingestObjects)),
			Value:  float64(1+rng.Intn(10)) / 10,
			Time:   rng.Float64() * 365,
		}
	}
	return rs
}

// marketplaceTrace generates the §IV marketplace with every rater
// population multiplied by scale, over the given number of months.
func marketplaceTrace(seed int64, scale, months int) ([]rating.Rating, []rating.ObjectID, error) {
	p := sim.DefaultMarketplace()
	p.Reliable *= scale
	p.Careless *= scale
	p.PC *= scale
	p.Months = months
	tr, err := sim.GenerateMarketplace(randx.New(seed), p)
	if err != nil {
		return nil, nil, err
	}
	objs := make([]rating.ObjectID, len(tr.Products))
	for i, pr := range tr.Products {
		objs[i] = pr.ID
	}
	return sim.Ratings(tr.Ratings), objs, nil
}

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *randx.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// windowsOver cuts [start, end) into consecutive windows of the given
// width; the last one ends exactly at end and may be shorter.
func windowsOver(start, end, width float64) []window {
	n := int(math.Ceil((end-start)/width - 1e-9))
	out := make([]window, n)
	for i := range out {
		out[i] = window{start + float64(i)*width, start + float64(i+1)*width}
	}
	if n > 0 {
		out[n-1].End = end
	}
	return out
}
