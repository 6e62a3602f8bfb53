package main

import (
	"reflect"
	"testing"
	"time"
)

// Batches are kept only when they lie wholly inside a busy interval, and
// their marks run on a clock that stops between intervals.
func TestBesideWrites(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	busy := []interval{{ms(10), ms(20)}, {ms(30), ms(50)}}
	batches := []interval{
		{ms(0), ms(5)},   // before any write
		{ms(8), ms(12)},  // straddles the first interval's start
		{ms(12), ms(15)}, // inside the first
		{ms(19), ms(21)}, // straddles its end
		{ms(25), ms(28)}, // between intervals
		{ms(31), ms(34)}, // inside the second
		{ms(45), ms(50)}, // ends with it
		{ms(55), ms(60)}, // after the last
	}
	marks, lat, span := besideWrites(batches, busy)
	if want := []time.Duration{ms(5), ms(14), ms(30)}; !reflect.DeepEqual(marks, want) {
		t.Errorf("marks %v, want %v", marks, want)
	}
	if want := []float64{3000, 3000, 5000}; !reflect.DeepEqual(lat, want) {
		t.Errorf("latencies %v, want %v", lat, want)
	}
	if span != ms(30) {
		t.Errorf("span %v, want 30ms", span)
	}
}

// The calm summaries take the fast-side quartile and leave their input
// unsorted.
func TestCalmQuartiles(t *testing.T) {
	rates := []float64{50, 10, 40, 20, 30}
	if got := calmRate(rates); got != 40 {
		t.Errorf("calmRate = %g, want 40", got)
	}
	if got := calmTime(rates); got != 20 {
		t.Errorf("calmTime = %g, want 20", got)
	}
	if rates[0] != 50 || rates[1] != 10 {
		t.Errorf("input reordered: %v", rates)
	}
}

func TestWindowRates(t *testing.T) {
	marks := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond, 10 * time.Millisecond}
	got := windowRates(marks, 2, 10*time.Millisecond, 2)
	// Two windows of 5 ms: two marks, then two (the mark at 10 ms is outside).
	if want := []float64{800, 800}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowRates = %v, want %v", got, want)
	}
}
