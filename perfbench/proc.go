package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clkTck = 100

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	cpuTicks     int64 // utime + stime
	syscalls     int64 // syscr + syscw
	bytes        int64 // rchar + wchar
	ctxsw        int64 // voluntary + nonvoluntary, summed over threads
	hwmKB        int64 // VmHWM: peak resident set
	ioReadable   bool
	statReadable bool
}

// readProc reads pid's counters; pid 0 means this process.
func readProc(pid int) procSample {
	dir := "/proc/self"
	if pid != 0 {
		dir = fmt.Sprintf("/proc/%d", pid)
	}
	var s procSample
	if b, err := os.ReadFile(dir + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		if i := bytes.LastIndexByte(b, ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				u, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				s.cpuTicks = u + st
				s.statReadable = true
			}
		}
	}
	if kv, err := readKV(dir + "/io"); err == nil {
		s.syscalls = kv["syscr"] + kv["syscw"]
		s.bytes = kv["rchar"] + kv["wchar"]
		s.ioReadable = true
	}
	if kv, err := readKV(dir + "/status"); err == nil {
		s.hwmKB = kv["VmHWM"]
	}
	tasks, _ := filepath.Glob(dir + "/task/*/status")
	for _, t := range tasks {
		if kv, err := readKV(t); err == nil {
			s.ctxsw += kv["voluntary_ctxt_switches"] + kv["nonvoluntary_ctxt_switches"]
		}
	}
	return s
}

// readKV parses "key: value [unit]" lines, keeping the leading integer.
func readKV(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	kv := make(map[string]int64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			kv[k] = n
		}
	}
	return kv, nil
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// stealTicks is the host's steal time so far, summed over CPUs, in
// USER_HZ ticks: time this machine's virtual CPUs were runnable but the
// hypervisor ran something else.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// rssKB is this process's resident set size now (VmRSS).
func rssKB() int64 {
	kv, err := readKV("/proc/self/status")
	if err != nil {
		return 0
	}
	return kv["VmRSS"]
}
