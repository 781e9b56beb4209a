module gpuscout/bench

go 1.22

require gpuscout v0.0.0

replace gpuscout => ../
