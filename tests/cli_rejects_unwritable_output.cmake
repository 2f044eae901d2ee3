# The spaden CLI must check every output path before it does any work: with
# FLAG naming a file in a directory that does not exist, `spaden CMD` exits
# non-zero with an error naming the flag, and prints nothing of a run.
#
#   cmake -DCLI=<path to spaden> -DCMD=<spmv|serve> -DFLAG=<--flag>
#         -DDIR=<missing directory> -P cli_rejects_unwritable_output.cmake
if(CMD STREQUAL "spmv")
  set(args spmv cant --scale 0.125 --threads 1 --method csr)
else()
  set(args ${CMD})
endif()
execute_process(COMMAND ${CLI} ${args} ${FLAG} ${DIR}/out.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${CMD} ${FLAG} ${DIR}/out.json' was accepted:\n${out}")
endif()
string(FIND "${err}" "${FLAG} '${DIR}/out.json' cannot be written" at)
if(at EQUAL -1)
  message(FATAL_ERROR "expected an error naming ${FLAG} and its path, got:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "'${CMD}' did work before failing:\n${out}")
endif()
