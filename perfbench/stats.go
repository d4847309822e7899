package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000…02) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder is the percentile ladder tailPercentile climbs.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that still has
// at least ten samples beyond it among n samples — the highest percentile a
// timing can honestly be reported at — and false when not even the median
// has ten samples beyond it.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssSampler records the process's peak resident set size while it runs,
// sampling /proc/self/statm (Linux). Where statm is unreadable the peak stays
// 0 and the caller reports that.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tk.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	b := pages * int64(os.Getpagesize())
	s.mu.Lock()
	if b > s.peak {
		s.peak = b
	}
	s.mu.Unlock()
}

// Stop ends sampling and returns the peak in MiB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}
