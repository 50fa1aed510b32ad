package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchDir is the benchmark's own directory. run.sh exports it; under
// `go test` and `go run .` the working directory is already the package
// directory.
func benchDir() string {
	if d := os.Getenv("VDBENCH_DIR"); d != "" {
		return d
	}
	return "."
}

func outDir() string { return filepath.Join(benchDir(), "out") }

// environment is what results.json records about the machine and build, so
// a number is never read without the core count it was taken on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	CPUFlags   string `json:"cpu_flags"`
	L1dBytes   int64  `json:"l1d_bytes"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
	MemTotalMB int64  `json:"mem_total_mb"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func captureEnv(seed int64) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
		Seed:       seed,
		L1dBytes:   cacheBytes(1, "Data"),
		L2Bytes:    cacheBytes(2, "Unified"),
		L3Bytes:    cacheBytes(3, "Unified"),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if e.CPUModel == "" {
					e.CPUModel = strings.TrimSpace(v)
				}
			case "flags":
				if e.CPUFlags == "" {
					e.CPUFlags = strings.TrimSpace(v)
				}
			}
		}
		f.Close()
	}
	e.MemTotalMB = procKB("/proc/meminfo", "MemTotal") / 1024
	// The driver's checkout is not a git repository; the commit is recorded
	// only where git can tell it.
	if out, err := exec.Command("git", "-C", benchDir(), "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// cacheBytes reads cpu0's cache of the given level and type from sysfs;
// 0 when the kernel does not report it.
func cacheBytes(level int, typ string) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		ty, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(ty)) != typ {
			continue
		}
		sz, _ := os.ReadFile(filepath.Join(d, "size"))
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n * mult
		}
	}
	return 0
}

// procKB reads a "Key:   123 kB" line from a /proc file; 0 when absent.
func procKB(path, key string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(k) != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			return 0
		}
		n, _ := strconv.ParseInt(f[0], 10, 64)
		return n
	}
	return 0
}
