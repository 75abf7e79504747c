package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"

	"espnuca/internal/experiment"
)

// expected.json holds the reference output of every checked unit for
// every simulation seed. Regenerate it only when a change means to alter
// simulation results:
//
//	cd perfbench && go run . -write-expected expected.json
//
//go:embed expected.json
var expectedJSON []byte

// expectations is expected.json; maps are keyed by simulation seed.
type expectations struct {
	// FTFull is the RunResult of the ft-full cell.
	FTFull map[string]cellExpect `json:"ft_full"`
	// Fig8Quick is the SHA-256 of the rendered fig8-quick table.
	Fig8Quick map[string]string `json:"fig8_quick_table_sha256"`
	// ServeSampled is, per architecture, the sampled cell's result and
	// the Throughput of a full run of the identical RunConfig.
	ServeSampled map[string]map[string]serveExpect `json:"serve_sampled"`
}

type cellExpect struct {
	SHA256     string  `json:"sha256"`
	Cycles     uint64  `json:"cycles"`
	Retired    uint64  `json:"retired"`
	Throughput float64 `json:"throughput"`
}

type serveExpect struct {
	Sampled        cellExpect `json:"sampled"`
	FullThroughput float64    `json:"full_throughput"`
}

var loadExpected = sync.OnceValues(func() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
})

func seedKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// resultBytes is the result's JSON encoding, the form espserved serves.
func resultBytes(res experiment.RunResult) []byte {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // RunResult holds only numbers and strings
	}
	return b
}

func expectOf(res experiment.RunResult) cellExpect {
	return cellExpect{SHA256: sha(resultBytes(res)), Cycles: uint64(res.Cycles), Retired: res.Retired, Throughput: res.Throughput}
}

// writeExpected recomputes every reference output, spreading the
// independent simulations over all cores.
func writeExpected(path string) error {
	e := expectations{
		FTFull:       map[string]cellExpect{},
		Fig8Quick:    map[string]string{},
		ServeSampled: map[string]map[string]serveExpect{},
	}
	var (
		mu   sync.Mutex
		jobs []func() error
	)
	for s := uint64(1); s <= seedVariants; s++ {
		s, k := s, seedKey(s)
		e.ServeSampled[k] = map[string]serveExpect{}
		jobs = append(jobs, func() error {
			res, err := experiment.Run(ftConfig(s))
			mu.Lock()
			defer mu.Unlock()
			e.FTFull[k] = expectOf(res)
			return err
		}, func() error {
			tab, err := experiment.Figure8(fig8Options(s, 1))
			mu.Lock()
			defer mu.Unlock()
			e.Fig8Quick[k] = sha([]byte(tab.String()))
			return err
		})
		for _, a := range paperArchs {
			a := a
			jobs = append(jobs, func() error {
				rc, err := serveConfig(a, s)
				if err != nil {
					return err
				}
				sampled, err := experiment.Run(rc)
				if err != nil {
					return err
				}
				rc.SampleWindows = 0
				full, err := experiment.Run(rc)
				mu.Lock()
				defer mu.Unlock()
				e.ServeSampled[k][a] = serveExpect{Sampled: expectOf(sampled), FullThroughput: full.Throughput}
				return err
			})
		}
	}
	next := make(chan func() error)
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range next {
				errs <- job()
			}
		}()
	}
	for _, job := range jobs {
		next <- job
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
