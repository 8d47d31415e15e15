module sparseap/bench

go 1.22

require sparseap v0.0.0

replace sparseap => ../
