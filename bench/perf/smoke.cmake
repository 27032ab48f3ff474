# ctest script for sccft_bench_smoke: runs every workload with --quick at
# seed 1 and at held-out seed 1001 and fails unless each run exits 0, which
# the benchmark does only when fail_frac == 0.
#   cmake -DBENCH=<path to sccft_bench> -P smoke.cmake
foreach(workload paper_tables chaos_soak fleet_sweep vuln_profile)
  foreach(seed 1 1001)
    execute_process(COMMAND ${BENCH} --workload ${workload} --seed ${seed} --quick
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "sccft_bench --workload ${workload} --seed ${seed} --quick "
                          "exited with ${status}")
    endif()
  endforeach()
endforeach()
