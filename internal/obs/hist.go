package obs

import (
	"fmt"
	"math/bits"
)

// histSubBits fixes the histogram resolution: each power-of-two octave is
// split into 2^histSubBits sub-buckets, bounding the relative quantile error
// at 1/2^histSubBits (~6% for 3 bits). histBuckets buckets cover the full
// non-negative int64 range (4 KiB of uint64); a histogram holds only the
// octaves up to the highest one it has observed.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = 512
)

// histIndex maps a value to its bucket. Values below 2*histSub land in
// exact unit-width buckets; above that, bucket i covers
// [m<<e, (m+1)<<e) with m = i mod histSub + histSub and e = i/histSub - 1.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1 - histSubBits
	return int(e)<<histSubBits + int(v>>e)
}

// histValue returns the representative (upper-bound) value of bucket i,
// the inverse of histIndex up to bucket width.
func histValue(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	e := uint(i>>histSubBits) - 1
	m := int64(i) - int64(e)<<histSubBits
	return m<<e + (1<<e - 1)
}

// histWidth returns the number of distinct values bucket i covers: 1 in the
// exact unit-width range, 2^e above it.
func histWidth(i int) int64 {
	if i < 2*histSub {
		return 1
	}
	return 1 << (uint(i>>histSubBits) - 1)
}

// Histogram is a log-bucketed (HDR-style) histogram of non-negative int64
// values — delivery latencies in ns, queue depths in bytes. Observe is O(1)
// and allocation-free once its bucket exists; Merge is a bucket-wise add,
// so merging shards is commutative and order-independent (deterministic
// regardless of iteration order). The zero value is ready to use and holds
// no buckets: the bucket slice grows, in whole octaves, to the highest
// bucket observed or merged, so its length is a function of the maximum
// bucket index alone. Copying a Histogram shares its buckets; Merge into a
// zero Histogram to copy one.
type Histogram struct {
	count   uint64
	sum     int64
	min     int64
	max     int64
	buckets []uint64
}

// grow extends the buckets to whole octaves covering index i.
func (h *Histogram) grow(i int) {
	b := make([]uint64, (i>>histSubBits+1)<<histSubBits)
	copy(b, h.buckets)
	h.buckets = b
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := histIndex(uint64(v))
	if i >= len(h.buckets) {
		h.grow(i)
	}
	h.buckets[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Max returns the exact maximum observed value (0 if empty).
func (h *Histogram) Max() int64 { return h.max }

// Merge folds o into h. Safe when o is nil or empty.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	if len(o.buckets) > len(h.buckets) {
		h.grow(len(o.buckets) - 1)
	}
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// Reset clears the histogram to its zero state.
func (h *Histogram) Reset() { *h = Histogram{} }

// Quantile returns the q-quantile (0 < q <= 1), linearly interpolated by
// rank within the bucket holding the target, clamped to the exact observed
// [min, max]. Interpolation matters when a tight distribution lands entirely
// in one log bucket — e.g. per-receiver message latencies on an uncongested
// fabric, spread over ~3 µs at a ~94 µs magnitude where the bucket is ~12 µs
// wide: upper-bound reporting would collapse every quantile to the same
// value, while rank interpolation keeps p50 < p99 ordered across the real
// [min, max] span.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q*float64(h.count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i]
		cum += n
		if cum < target {
			continue
		}
		hi := histValue(i)
		lo := hi - histWidth(i) + 1
		// Tighten the bucket span with the exact observed bounds: when the
		// whole distribution sits in one bucket, this interpolates across
		// the true [min, max] instead of the wider bucket range (whose
		// midpoint would clamp to max for top-of-bucket clusters).
		if lo < h.min {
			lo = h.min
		}
		if hi > h.max {
			hi = h.max
		}
		frac := float64(target-(cum-n)) / float64(n)
		return lo + int64(frac*float64(hi-lo))
	}
	return h.max
}

// Summary is a point-in-time digest of a Histogram.
type Summary struct {
	Count uint64
	Mean  int64
	Min   int64
	Max   int64
	P50   int64
	P90   int64
	P99   int64
	P999  int64
}

// Summary computes the digest.
func (h *Histogram) Summary() Summary {
	s := Summary{
		Count: h.count,
		Min:   h.min,
		Max:   h.max,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	if h.count > 0 {
		s.Mean = h.sum / int64(h.count)
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%d p50=%d p90=%d p99=%d p999=%d max=%d",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
