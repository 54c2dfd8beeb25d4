# Command-line contract of farm_arrivals: --help prints the usage and exits
# 0; an unknown argument, a flag without its value or a non-numeric job
# count exits 2. None of them may write a JSON file (the default output
# name is the committed full-scale artifact).
#
#   cmake -DEXE=<farm_arrivals> -DDIR=<scratch dir> -P farm_arrivals_cli.cmake

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

function(expect_exit code)
  execute_process(COMMAND "${EXE}" ${ARGN}
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR
      "farm_arrivals ${ARGN}: exit ${rc}, want ${code}\n${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "usage: farm_arrivals")
    message(FATAL_ERROR "farm_arrivals ${ARGN}: no usage text\n${out}${err}")
  endif()
  file(GLOB written "${DIR}/*")
  if(written)
    message(FATAL_ERROR "farm_arrivals ${ARGN} wrote ${written}")
  endif()
endfunction()

expect_exit(0 --help)
expect_exit(2 --bogus)
expect_exit(2 --full --bogus)
expect_exit(2 --out)
expect_exit(2 --jobs)
expect_exit(2 --jobs many)
expect_exit(2 --jobs 12x)
expect_exit(2 --jobs -5)
