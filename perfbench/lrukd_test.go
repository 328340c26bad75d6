package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tlrukd\nVmPeak:\t  999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 50 {
		t.Fatalf("parseVmHWM = %v, %v; want 50 MiB", got, err)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Fatal("no VmHWM line: want an error")
	}
}

func TestParseCPUTime(t *testing.T) {
	// The command name may hold spaces and parentheses; utime and stime
	// are the 14th and 15th fields of the line.
	stat := "4242 (lru kd (x)) S 1 4242 4242 0 -1 4194560 1207 0 0 0 150 25 0 0 20 0 7 0 123 0"
	got, err := parseCPUTime(stat)
	if err != nil || got != 1750*time.Millisecond {
		t.Fatalf("parseCPUTime = %v, %v; want 1.75s", got, err)
	}
	if _, err := parseCPUTime("4242 (x) S 1"); err == nil {
		t.Fatal("short stat line: want an error")
	}
}
