package sim

// Bytes is what the recording's streams hold, as the budget charges it:
// BenchmarkReplay's rec_B.
func (r *Recording) Bytes() int {
	n := 0
	for i := range r.sms {
		n += r.sms[i].bytes
	}
	return n
}
