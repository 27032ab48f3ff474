# ctest script for sccft_bench_counts: the benchmark's exact work counts.
#
#   cmake -DBENCH=<path to sccft_bench> -DCOUNT_SET=default|compiled_out
#         -DWORK_DIR=<scratch dir> -P bench_counts.cmake
#
# Runs every workload of bench/perf with `--seed 1 --quick --trace` and
# compares each per-layer stdout row whose unit is `count` with the value
# pinned below. The counts are work done (simulator events, channel
# operations, detections, storms), not time, so they repeat exactly on any
# machine: a change that makes any workload do more or less work fails here,
# naming the workload, the count and both values. Re-pinning a value is a
# deliberate act, recorded in CHANGES.md like a digest change.
#
# A SCCFT_TRACE_COMPILED_OUT build removes the data-path trace events, so
# the counts fed by them differ; COUNT_SET=compiled_out overrides those.
# Digests and sim.events are the same in both builds.
cmake_minimum_required(VERSION 3.16)

set(default_paper_tables
    sim.events=63036 kpn.enqueue=29668 kpn.dequeue=29636 kpn.reader_block=20025
    kpn.token_drop=3227 kpn.writer_block=0 scc.noc_contention_stalls=1254
    ft.detections=12 sim.runs=24)
set(default_chaos_soak
    sim.events=32931 kpn.enqueue=14148 kpn.dequeue=14106 kpn.reader_block=13098
    kpn.token_drop=4525 kpn.writer_block=0 trace.flight_events=65557 ft.detections=59 ft.restarts=30
    ft.scrub_repairs=22 adapt.reconfig_windows=28 sim.runs=24)
set(default_fleet_sweep
    sim.events=83297 kpn.writer_block=0 ft.detections=50 ft.restarts=50
    fleet.infeasible=3 scc.noc_contention_stalls=1 sim.runs=8)
set(default_vuln_profile
    sim.events=0 ft.detections=472 sim.runs=384 vuln.storms=384)

set(compiled_out_paper_tables kpn.enqueue=11862 kpn.dequeue=11830 kpn.reader_block=0)
set(compiled_out_chaos_soak kpn.reader_block=0 trace.flight_events=52459)
set(compiled_out_fleet_sweep)
set(compiled_out_vuln_profile)

if(NOT COUNT_SET STREQUAL "default" AND NOT COUNT_SET STREQUAL "compiled_out")
  message(FATAL_ERROR "COUNT_SET must be default or compiled_out, got '${COUNT_SET}'")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

set(failures "")
foreach(workload paper_tables chaos_soak fleet_sweep vuln_profile)
  # pin_<name> holds the pinned value of each count of this workload.
  set(pinned_names "")
  set(pairs ${default_${workload}})
  if(COUNT_SET STREQUAL "compiled_out")
    list(APPEND pairs ${compiled_out_${workload}})  # later pairs override
  endif()
  foreach(pair ${pairs})
    string(REGEX REPLACE "=.*" "" name "${pair}")
    string(REGEX REPLACE "^[^=]*=" "" value "${pair}")
    set(pin_${name} ${value})
    list(APPEND pinned_names ${name})
  endforeach()
  list(REMOVE_DUPLICATES pinned_names)

  execute_process(COMMAND ${BENCH} --workload ${workload} --seed 1 --quick
                          --trace ${WORK_DIR}/${workload}.json
                  OUTPUT_VARIABLE output
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "sccft_bench --workload ${workload} --seed 1 --quick "
                        "exited with ${status}")
  endif()

  # Per-layer rows read "  <name>  <value> count"; the match stops before
  # each line's newline so the next row's match can start on it.
  string(REGEX MATCHALL "\n  [^ \n]+ +[^ \n]+ count *" rows "${output}")
  set(seen "")
  foreach(row ${rows})
    string(REGEX REPLACE "^\n  ([^ \n]+) +([^ \n]+) count *$" "\\1" name "${row}")
    string(REGEX REPLACE "^\n  ([^ \n]+) +([^ \n]+) count *$" "\\2" value "${row}")
    list(APPEND seen ${name})
    if(NOT DEFINED pin_${name})
      list(APPEND failures "${workload}: ${name} is ${value}, no value pinned")
    elseif(NOT value STREQUAL pin_${name})
      list(APPEND failures "${workload}: ${name} is ${value}, pinned ${pin_${name}}")
    endif()
  endforeach()
  foreach(name ${pinned_names})
    if(NOT name IN_LIST seen)
      list(APPEND failures "${workload}: ${name} is missing, pinned ${pin_${name}}")
    endif()
    unset(pin_${name})
  endforeach()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "sccft_bench work counts differ from the ${COUNT_SET} "
                      "pins (--seed 1 --quick):\n  ${report}")
endif()
message(STATUS "sccft_bench work counts match the ${COUNT_SET} pins")
